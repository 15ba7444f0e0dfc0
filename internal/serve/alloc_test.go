package serve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestServeHitAllocGate holds a cache-hit Submit to a reviewed
// allocation count. The ring of finished jobs is full first, so every hit
// also retires the oldest job: the steady state of a long-lived service.
// Registry.Get, the snapshot's acquire and release, ResultCache.Get and
// the ring's retirement allocate nothing, and so does spec validation: it
// checks the kernel and partitioner names against their registries
// without constructing either, and every policy is a zero-size value.
// The 7 allocations, all from building the job:
//   - the cache key: the spec copied to the heap for json.Marshal, the
//     marshalled bytes, and the digest-prefixed key string (3);
//   - the Job and its done channel (2);
//   - the job id: fmt.Sprintf's boxed number and its string (2).
//
// Under -race the count reads 9 or 10 and varies from run to run, so the
// gate runs without it.
func TestServeHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the count is pinned without -race")
	}
	m, _ := newTestManager(t, ManagerConfig{Executors: 1, QueueCap: 4}, func(_ context.Context, _ *Snapshot, spec JobSpec) (*core.Result, error) {
		return fakeResult(spec), nil
	})
	spec := JobSpec{Snapshot: "g", Kernel: "bfs"}
	job, err := m.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	hit := func() {
		job, err := m.Submit("alice", spec)
		if err != nil || !job.cacheHit {
			t.Fatalf("submit: %v, hit %v", err, err == nil && job.cacheHit)
		}
	}
	for i := 0; i <= finishedJobsKept; i++ {
		hit()
	}
	const want = 7
	if got := testing.AllocsPerRun(3000, hit); got != want {
		t.Errorf("a cache-hit Submit makes %.0f allocations, want %d: the count is a reviewed number — a change that moves it updates it here, with why", got, want)
	}
}

// TestMemoHitAllocGate holds a warm miss's two lookups, its plan and then
// its execution, to no allocation: each table is keyed by its own key
// type, so a lookup hashes the key where it lies and boxes nothing. It
// reads 0 under -race too.
func TestMemoHitAllocGate(t *testing.T) {
	m, snap := newTestManager(t, ManagerConfig{}, nil)
	ctx := context.Background()
	pkey := planKey{snap.Digest(), partition.Hash{}, 4}
	a, err := m.cache.plan(ctx, snap.Graph(), pkey)
	if err != nil {
		t.Fatal(err)
	}
	tkey := traceKey{plan: pkey, kernel: "bfs"}
	exec := func() (*sim.Trace, int64, error) {
		tr, err := sim.Execute(ctx, snap.Graph(), kernels.NewBFS(0), sim.ExecConfig{Assign: a})
		if err != nil {
			return nil, 0, err
		}
		return tr, tr.Size(), nil
	}
	if _, err := memo(m.cache, ctx, &m.cache.traces, tkey, exec); err != nil {
		t.Fatal(err)
	}
	lookups := func() {
		if _, err := m.cache.plan(ctx, snap.Graph(), pkey); err != nil {
			t.Fatal(err)
		}
		if _, err := memo(m.cache, ctx, &m.cache.traces, tkey, exec); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(1000, lookups); got != 0 {
		t.Errorf("a warm plan and trace lookup make %.0f allocations, want 0", got)
	}
	if hits := counter(m, CounterPlanCacheHits) + counter(m, CounterTraceCacheHits); hits < 2*1000 {
		t.Errorf("%d plan and trace hits: the lookups did not hit", hits)
	}
}
