package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestEveryLockIsReleasedOnEveryPath drives each method of the manager,
// the registry and the result cache with its memo of plans and traces
// through each of its return paths, and after every step takes each of
// those locks again. A path that returns holding a lock turns the step
// after it into a hang, which the step's bound reports by name.
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
	m.exec = marshalled(func(ctx context.Context, s *Snapshot, spec JobSpec) (*core.Result, error) {
		if spec.Seed == failSeed {
			return nil, errBoom
		}
		return block(ctx, s, spec)
	})
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
		// The executor's memo hit: a queued job whose result another job
		// has kept meanwhile.
		{"runJob/memo-hit", func() error {
			job := &Job{tenant: "z", spec: done.spec, key: done.key, state: StateQueued, done: make(chan struct{})}
			m.mu.Lock()
			m.admitLocked(job)
			m.mu.Unlock()
			m.runJob(job)
			if !m.info(job).CacheHit {
				return errors.New("a job answered by a kept result is not a cache hit")
			}
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
		{"ResultCache/result-hit", func() error {
			compute := func() ([]byte, error) { return []byte("v"), nil }
			if _, err := m.cache.result(context.Background(), "k", compute); err != nil {
				return err
			}
			b, err := m.cache.result(context.Background(), "k", nil)
			if err == nil && string(b) != "v" {
				err = fmt.Errorf("a hit read %q", b)
			}
			return err
		}},
		// A result waiter whose context ends while another caller computes
		// its key.
		{"ResultCache/result-wait-ends", func() error {
			started, unblock, computed := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				_, err := m.cache.result(context.Background(), "held", func() ([]byte, error) {
					close(started)
					<-unblock
					return []byte("v"), nil
				})
				computed <- err
			}()
			<-started
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := m.cache.result(ctx, "held", nil)
			close(unblock)
			return errors.Join(is(err, context.Canceled), <-computed, nothingRunning(m.cache))
		}},
		// A failed computation keeps nothing: the caller that waited for
		// it computes afresh.
		{"ResultCache/result-fails-then-recomputes", func() error {
			started, unblock, failed := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				_, err := m.cache.result(context.Background(), "flaky", func() ([]byte, error) {
					close(started)
					<-unblock
					return nil, errBoom
				})
				failed <- err
			}()
			<-started
			ctx := waitingCtx{context.Background(), make(chan struct{}), new(sync.Once)}
			got := make(chan error, 1)
			go func() {
				b, err := m.cache.result(ctx, "flaky", func() ([]byte, error) { return []byte("v"), nil })
				if err == nil && string(b) != "v" {
					err = fmt.Errorf("the waiter read %q", b)
				}
				got <- err
			}()
			<-ctx.waiting
			close(unblock)
			err := errors.Join(is(<-failed, errBoom), <-got, nothingRunning(m.cache))
			if _, kept := m.cache.Get("flaky"); err != nil || !kept {
				return fmt.Errorf("the waiter's own value kept: %v; %v", kept, err)
			}
			return nil
		}},
		{"ResultCache/Get-miss", func() error {
			if _, ok := m.cache.Get("absent"); ok {
				return errors.New("hit on an absent key")
			}
			return nil
		}},
		{"ResultCache/trace-fails", func() error {
			_, err := memo(m.cache, context.Background(), &m.cache.traces, traceKey{kernel: "boom"}, func() (keptTrace, int64, error) { return keptTrace{}, 0, errBoom })
			return is(err, errBoom)
		}},
		{"ResultCache/trace-miss", func() error {
			_, err := memo(m.cache, context.Background(), &m.cache.traces, traceKey{kernel: "bfs"}, func() (keptTrace, int64, error) {
				a, err := partition.Hash{}.Partition(snap.Graph(), 2)
				if err != nil {
					return keptTrace{}, 0, err
				}
				tr, err := sim.Execute(context.Background(), snap.Graph(), kernels.NewBFS(0), sim.ExecConfig{Assign: a})
				if err != nil {
					return keptTrace{}, 0, err
				}
				return keptTrace{trace: tr}, tr.Size(), nil
			})
			return err
		}},
		{"ResultCache/trace-hit", func() error {
			_, err := memo(m.cache, context.Background(), &m.cache.traces, traceKey{kernel: "bfs"}, nil)
			return err
		}},
		// A waiter whose context ends while another caller executes its key.
		{"ResultCache/trace-wait-ends", func() error {
			key := traceKey{kernel: "held"}
			started, unblock, executed := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				_, err := memo(m.cache, context.Background(), &m.cache.traces, key, func() (keptTrace, int64, error) {
					close(started)
					<-unblock
					return keptTrace{}, 0, errBoom
				})
				executed <- err
			}()
			<-started
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := memo(m.cache, ctx, &m.cache.traces, key, nil)
			close(unblock)
			return errors.Join(is(err, context.Canceled), is(<-executed, errBoom), nothingRunning(m.cache))
		}},
		{"ResultCache/plan-miss", func() error {
			_, err := m.cache.plan(context.Background(), snap.Graph(), planKey{snap.Digest(), partition.Hash{}, 2})
			return err
		}},
		{"ResultCache/plan-hit", func() error {
			_, err := m.cache.plan(context.Background(), snap.Graph(), planKey{snap.Digest(), partition.Hash{}, 2})
			return err
		}},
		// A waiter whose context ends while another caller partitions.
		{"ResultCache/plan-wait-ends", func() error {
			p := heldPartitioner{make(chan struct{}), make(chan struct{})}
			key := planKey{snap.Digest(), p, 2}
			partitioned := make(chan error, 1)
			go func() {
				_, err := m.cache.plan(context.Background(), snap.Graph(), key)
				partitioned <- err
			}()
			<-p.started
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := m.cache.plan(ctx, snap.Graph(), key)
			close(p.unblock)
			return errors.Join(is(err, context.Canceled), <-partitioned, nothingRunning(m.cache))
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

// heldPartitioner partitions by hash once unblock is closed, having
// closed started: a plan whose computation a test holds open.
type heldPartitioner struct{ started, unblock chan struct{} }

func (heldPartitioner) Name() string { return "held" }

func (h heldPartitioner) Partition(g *graph.Graph, k int) (*partition.Assignment, error) {
	close(h.started)
	<-h.unblock
	return partition.Hash{}.Partition(g, k)
}

// nothingRunning fails if the cache still counts a computation running.
func nothingRunning(c *ResultCache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.results.running) + len(c.plans.running) + len(c.traces.running); n != 0 {
		return fmt.Errorf("%d computations still running", n)
	}
	return nil
}

// waitingCtx closes waiting the first time its Done is asked for, which
// memo does only to wait for another caller's computation.
type waitingCtx struct {
	context.Context
	waiting chan struct{}
	once    *sync.Once
}

func (c waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
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
