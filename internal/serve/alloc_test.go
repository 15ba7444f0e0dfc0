package serve

import (
	"context"
	"testing"

	"repro/internal/core"
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
