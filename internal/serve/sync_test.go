package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// TestEveryLockIsReleasedOnEveryPath drives each method of the manager,
// the registry, a snapshot's plan cache and the result cache through each
// of its return paths, and after every step takes each of those locks
// again. A path that returns holding a lock turns the step after it into
// a hang, which the step's bound reports by name.
func TestEveryLockIsReleasedOnEveryPath(t *testing.T) {
	release := make(chan struct{})
	const failSeed = 666
	errBoom := errors.New("boom")
	block := blockingExec(release)
	// Not newTestManager: its cleanup stops the manager, and a step that
	// left the manager's lock held would hang that Stop too.
	reg := NewRegistry()
	if _, err := reg.Put("g", testGraph(t, 7)); err != nil {
		t.Fatal(err)
	}
	snap := reg.snaps["g"]
	m := NewManager(reg, &metrics.Registry{}, ManagerConfig{Executors: 1, QueueCap: 1, TenantQuota: 1, CacheEntries: 1})
	m.exec = func(ctx context.Context, s *Snapshot, spec JobSpec) (*core.Result, error) {
		if spec.Seed == failSeed {
			return nil, errBoom
		}
		return block(ctx, s, spec)
	}
	held := false
	defer func() {
		if !held {
			m.Stop()
		}
	}()
	spec := func(seed uint64) JobSpec { return JobSpec{Snapshot: "g", Kernel: "cc", Seed: seed} }
	submit := func(tenant string, seed uint64, want error) (*Job, error) {
		job, err := m.Submit(tenant, spec(seed))
		if !errors.Is(err, want) {
			return nil, fmt.Errorf("Submit: err = %v, want %v", err, want)
		}
		return job, nil
	}
	state := func(job *Job, want string) error {
		if info := m.info(job); info.State != want {
			return fmt.Errorf("job %s is %s, want %s", job.ID(), info.State, want)
		}
		return nil
	}
	finish := func(job *Job, want string) error {
		select {
		case <-job.Done():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("job %s did not finish", job.ID())
		}
		return state(job, want)
	}
	is := func(err, want error) error {
		if !errors.Is(err, want) {
			return fmt.Errorf("err = %v, want %v", err, want)
		}
		return nil
	}

	var running, queued, done, failed *Job
	var err error
	steps := []struct {
		name string
		do   func() error
	}{
		{"Submit/invalid-spec", func() error {
			if _, err := m.Submit("a", JobSpec{Snapshot: "g", Kernel: "nope"}); err == nil {
				return errors.New("an unknown kernel was admitted")
			}
			return nil
		}},
		{"Submit/unknown-snapshot", func() error {
			_, err := m.Submit("a", JobSpec{Snapshot: "nope", Kernel: "cc"})
			return is(err, ErrUnknownSnapshot)
		}},
		{"Submit/admitted", func() error {
			if running, err = submit("a", 1, nil); err != nil {
				return err
			}
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if state(running, StateRunning) == nil {
					return nil
				}
			}
			return state(running, StateRunning)
		}},
		{"Submit/over-quota", func() error { _, err := submit("a", 2, ErrQuotaExceeded); return err }},
		{"Submit/queued", func() error { queued, err = submit("b", 3, nil); return err }},
		{"Submit/queue-full", func() error { _, err := submit("c", 4, ErrQueueFull); return err }},
		{"Info", func() error { _, err := m.Info(running.ID()); return err }},
		{"Info/unknown", func() error { _, err := m.Info("j99999999"); return is(err, ErrUnknownJob) }},
		{"wait/unknown", func() error {
			_, err := m.wait(context.Background(), "j99999999", time.Second)
			return is(err, ErrUnknownJob)
		}},
		{"wait/expires", func() error {
			info, err := m.wait(context.Background(), running.ID(), time.Millisecond)
			if err == nil && info.State != StateRunning {
				err = fmt.Errorf("an expired wait answered %s", info.State)
			}
			return err
		}},
		{"wait/context-ends", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := m.wait(ctx, running.ID(), time.Minute)
			return is(err, context.Canceled)
		}},
		{"Result/not-done", func() error { _, err := m.Result(running.ID()); return is(err, ErrNotDone) }},
		{"Result/unknown", func() error { _, err := m.Result("j99999999"); return is(err, ErrUnknownJob) }},
		{"Cancel/queued", func() error {
			if err := m.Cancel(queued.ID()); err != nil {
				return err
			}
			return state(queued, StateCancelled)
		}},
		// The executor's early return: a job that was cancelled after it
		// left the queue.
		{"runJob/not-queued", func() error { m.runJob(queued); return state(queued, StateCancelled) }},
		{"Cancel/terminal", func() error { return m.Cancel(queued.ID()) }},
		{"Cancel/unknown", func() error { return is(m.Cancel("j99999999"), ErrUnknownJob) }},
		{"Cancel/running", func() error {
			if err := m.Cancel(running.ID()); err != nil {
				return err
			}
			return finish(running, StateCancelled)
		}},
		{"runJob/runs-to-done", func() error {
			close(release)
			if done, err = submit("a", 5, nil); err != nil {
				return err
			}
			return finish(done, StateDone)
		}},
		{"Result/done", func() error { _, err := m.Result(done.ID()); return err }},
		{"Submit/cache-hit", func() error {
			hit, err := submit("a", 5, nil)
			if err == nil && !hit.cacheHit {
				err = errors.New("an identical resubmission missed the cache")
			}
			return err
		}},
		// The executor's second-chance hit: a queued job whose result
		// another job has stored meanwhile.
		{"runJob/second-chance-hit", func() error {
			job := &Job{tenant: "z", spec: done.spec, key: done.key, state: StateQueued, done: make(chan struct{})}
			m.mu.Lock()
			m.admitLocked(job)
			m.mu.Unlock()
			m.runJob(job)
			return state(job, StateDone)
		}},
		{"runJob/fails", func() error {
			if failed, err = submit("a", failSeed, nil); err != nil {
				return err
			}
			return finish(failed, StateFailed)
		}},
		{"Result/failed", func() error { _, err := m.Result(failed.ID()); return is(err, errBoom) }},
		{"Result/evicted", func() error {
			// One cached result at most: the next one evicts done's.
			next, err := submit("a", 6, nil)
			if err != nil {
				return err
			}
			if err := finish(next, StateDone); err != nil {
				return err
			}
			_, err = m.Result(done.ID())
			return is(err, ErrJobExpired)
		}},
		{"ResultCache/Put-present", func() error {
			_, _ = m.cache.Put("k", nil)
			if n, _ := m.cache.Put("k", nil); n != 0 {
				return fmt.Errorf("a second Put of one key evicted %d", n)
			}
			return nil
		}},
		{"ResultCache/Get-miss", func() error {
			if _, ok := m.cache.Get("absent"); ok {
				return errors.New("hit on an absent key")
			}
			return nil
		}},
		{"Registry/Get", func() error {
			s, ok := m.reg.Get("g")
			if !ok {
				return errors.New("snapshot g missing")
			}
			s.release()
			return nil
		}},
		{"Registry/Get-missing", func() error {
			if _, ok := m.reg.Get("nope"); ok {
				return errors.New("found a snapshot never put")
			}
			return nil
		}},
		{"Registry/List", func() error { _ = m.reg.List(); return nil }},
		{"Registry/Put", func() error { _, err := m.reg.Put("h", snap.Graph()); return err }},
		{"plan/miss", func() error {
			_, err := snap.plan(partition.Hash{}, planKey{"hash", 0, 2}, &m.c)
			return err
		}},
		{"plan/hit", func() error {
			_, err := snap.plan(partition.Hash{}, planKey{"hash", 0, 2}, &m.c)
			return err
		}},
		{"Stop", func() error { m.Stop(); return nil }},
		{"Stop/stopped", func() error { m.Stop(); return nil }},
		{"Submit/stopped", func() error { _, err := submit("a", 7, ErrStopped); return err }},
	}
	// probe takes every lock the steps take, directly.
	probe := func() {
		m.mu.Lock()
		m.mu.Unlock()
		m.reg.mu.Lock()
		m.reg.mu.Unlock()
		snap.mu.Lock()
		snap.mu.Unlock()
		m.cache.mu.Lock()
		m.cache.mu.Unlock()
		m.metrics.Counter(CounterResultCacheHits)
	}
	for _, s := range steps {
		done := make(chan error, 1)
		go func() {
			err := s.do()
			probe()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		case <-time.After(10 * time.Second):
			held = true
			t.Fatalf("%s: did not return, or left a lock held: taking every lock after it hangs", s.name)
		}
	}
}

// TestJobContextEndsWithTheJob holds the executor to cancelling the
// context it gives a job once the job is over, whichever way it ended.
func TestJobContextEndsWithTheJob(t *testing.T) {
	ctxs := make(chan context.Context, 1)
	m, _ := newTestManager(t, ManagerConfig{Executors: 1}, func(ctx context.Context, _ *Snapshot, spec JobSpec) (*core.Result, error) {
		ctxs <- ctx
		return fakeResult(spec), nil
	})
	job, err := m.Submit("a", JobSpec{Snapshot: "g", Kernel: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if err := (<-ctxs).Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("a finished job's context: err = %v, want context.Canceled", err)
	}
}
