package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// waitForGoroutines polls until the process goroutine count settles at
// or below base+slack. Goroutine teardown is asynchronous (executor
// exits, HTTP keep-alive reapers), so a leak check must poll, never
// sleep a fixed amount or compare immediately.
func waitForGoroutines(t testing.TB, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: base %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidRunReturnsToBaseline cancels a job while its executor is
// parked inside exec and asserts the full teardown story: the job ends
// cancelled, the snapshot refcount returns to the registry's own
// reference, and stopping the manager with a job running and its twin
// waiting for that job's execution cancels both, computes nothing more and
// leaves no goroutine behind.
func TestCancelMidRunReturnsToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	defer close(release)
	m, snap := newTestManager(t, ManagerConfig{Executors: 2, QueueCap: 4}, blockingExec(release))
	refBase := snap.Refs()

	job, err := m.Submit("t", JobSpec{Snapshot: "g", Kernel: "cc", Seed: 601})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, job.ID())
	if err := m.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	info, err := m.Info(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", info.State)
	}
	if got := snap.Refs(); got != refBase {
		t.Fatalf("refs after cancel = %d, want %d", got, refBase)
	}

	var pair []*Job
	for range 2 {
		job, err := m.Submit("t", JobSpec{Snapshot: "g", Kernel: "cc", Seed: 602})
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, m, job.ID())
		pair = append(pair, job)
	}
	m.Stop()
	for _, job := range pair {
		waitDone(t, job)
		if info := m.info(job); info.State != StateCancelled {
			t.Fatalf("%s after Stop: state %s, want cancelled", job.ID(), info.State)
		}
	}
	if got := snap.Refs(); got != refBase {
		t.Fatalf("refs after Stop = %d, want %d", got, refBase)
	}
	if err := nothingRunning(m.cache); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base, 0)
}

// TestSnapshotSwapUnderAcquireReturnsToBaseline hammers Get/release
// against concurrent Put swaps and asserts nothing is left pinned: every
// superseded snapshot drains to zero references, the live one holds
// exactly the registry's own, and the acquiring goroutines all exit.
func TestSnapshotSwapUnderAcquireReturnsToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := NewRegistry()
	first, err := reg.Put("g", testGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	old, ok := reg.Get("g")
	if !ok {
		t.Fatal("snapshot missing")
	}
	old.release()
	if old.Digest() != first.Digest {
		t.Fatalf("digest %s, want %s", old.Digest(), first.Digest)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s, ok := reg.Get("g"); ok {
					s.release()
				}
			}
		}()
	}
	for seed := uint64(8); seed < 12; seed++ {
		if _, err := reg.Put("g", testGraph(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := old.Refs(); got != 0 {
		t.Fatalf("superseded snapshot refs = %d, want 0", got)
	}
	cur, ok := reg.Get("g")
	if !ok {
		t.Fatal("snapshot gone after swaps")
	}
	refs := cur.Refs()
	cur.release()
	// cur.Refs() observed our Get's reference on top of the registry's.
	if refs != 2 {
		t.Fatalf("live snapshot refs = %d, want 2 (registry + our Get)", refs)
	}
	waitForGoroutines(t, base, 0)
}

// TestServerShutdownReturnsToBaseline runs a real job through the HTTP
// surface, leaves a second one running with a waiter parked on it, then
// tears everything down in ndpserve's order — manager first, which
// releases the waiter, server second, which waits for its handler — and
// asserts the process returns to its goroutine baseline: no executor,
// listener, waiter or keep-alive goroutine survives.
func TestServerShutdownReturnsToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := NewRegistry()
	if _, err := reg.Put("g", testGraph(t, 7)); err != nil {
		t.Fatal(err)
	}
	m := NewManager(reg, &metrics.Registry{}, ManagerConfig{Executors: 2, QueueCap: 8})
	// The blocked job is told apart by its kernel; everything else runs
	// for real. It ends only by cancellation.
	m.exec = func(ctx context.Context, snap *Snapshot, spec JobSpec) ([]byte, error) {
		if spec.Kernel == "bfs" {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return m.runSpec(ctx, snap, spec)
	}
	srv := httptest.NewServer(NewServer(m))

	c := NewClient(srv.URL, "t")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := JobSpec{Snapshot: "g", Kernel: "cc", Partitions: 4}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone {
		t.Fatalf("job ended %s: %s", info.State, info.Error)
	}

	blocked, err := c.Submit(ctx, JobSpec{Snapshot: "g", Kernel: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	parked, _ := waitCounters(m) // the wait above may have parked too
	waiter := make(chan waitAnswer, 1)
	go func() {
		info, err := c.Wait(ctx, blocked.ID)
		waiter <- waitAnswer{info, err}
	}()
	waitParked(t, m, parked+1)

	start := time.Now()
	m.Stop()    // cancels the blocked job, releases the waiter, joins the executors
	srv.Close() // waits for in-flight handlers and closes idle conns
	if took := time.Since(start); took > MaxWait/10 {
		t.Errorf("teardown with a waiter parked took %v: it sat on the waiter's bound (%v)", took, MaxWait)
	}
	assertStopAnswer(t, recvAnswer(t, waiter))
	// A submission that arrives after Stop has already taken its snapshot
	// reference; the refusal must hand it back, or the count below is 3.
	if _, err := m.Submit("t", spec); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop: err = %v, want ErrStopped", err)
	}
	snap, ok := reg.Get("g")
	if !ok {
		t.Fatal("snapshot missing after shutdown")
	}
	refs := snap.Refs()
	snap.release()
	if refs != 2 {
		t.Fatalf("refs after shutdown = %d, want 2 (registry + our Get)", refs)
	}
	waitForGoroutines(t, base, 0)
}
