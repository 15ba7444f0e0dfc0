package serve

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestServeHitAllocGate holds a cache-hit Submit to a reviewed
// allocation count. The ring of finished jobs is full first, so every hit
// also retires the oldest job: the steady state of a long-lived service.
// Registry.Get, the snapshot's acquire and release, ResultCache.Get and
// the ring's retirement allocate nothing, and so do spec validation and
// canonicalization (core.Spec's Validate and Canonical): they resolve the
// kernel and partitioner names against their registries without
// constructing either, and every policy is a zero-size value.
// The 7 allocations, all from building the job:
//   - the cache key: the canonical spec copied to the heap for
//     json.Marshal, the marshalled bytes, and the digest-prefixed key
//     string (3);
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
	exec := func() (keptTrace, int64, error) {
		tr, err := sim.Execute(ctx, snap.Graph(), kernels.NewBFS(0), sim.ExecConfig{Assign: a})
		if err != nil {
			return keptTrace{}, 0, err
		}
		return keptTrace{trace: tr}, tr.Size(), nil
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

// TestKeptTraceMissAllocGate holds a served simulator miss of a kept
// trace — a distinct-seed LDG job, whose plan and trace an earlier job
// left in the memo — to what it must allocate: its output, the result's
// canonical bytes, rounded up to the runtime's 8 KiB pages; the pricing's
// ledger, a Record an iteration and a row an iteration and memory node
// (10 and 80 here, 4,640 bytes); and 4 KiB for the system, the Result,
// the wire struct and encoding/json's head (≈ 1.8 KiB). The values are
// not copied out of the trace: a clone of the 16,384 values would add
// 128 KiB. Nor are they encoded again, which allocates nothing and is
// caught by the kept encoding written over. The miss must execute
// nothing, keep the trace charged its encoding, and serve MarshalResult
// of its offline twin, two misses at once too. Under -race the bytes are
// not counted.
func TestKeptTraceMissAllocGate(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{}, nil)
	g, err := gen.ErdosRenyi(marshalAllocsValues, 4*marshalAllocsValues, gen.Config{Seed: 5, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Registry().Put("big", g); err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Registry().Get("big")
	if !ok {
		t.Fatal("snapshot missing")
	}
	defer snap.release()
	ctx := context.Background()
	spec := func(seed uint64) JobSpec {
		s := JobSpec{Snapshot: "big", Kernel: "pagerank", Partitioner: "ldg", Seed: seed}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := m.exec(ctx, snap, spec(1)); err != nil {
		t.Fatal(err)
	}
	miss := spec(2)
	res, err := ExecuteSpec(ctx, g, miss, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	// Two misses at once price the one kept trace and copy its encoding.
	outs, errs := make([][]byte, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = m.exec(ctx, snap, miss)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(out, want) {
			t.Fatal("a miss of a kept trace serves other bytes than its offline twin")
		}
	}
	out := outs[0]
	if misses := counter(m, CounterTraceCacheMisses); misses != 1 {
		t.Fatalf("%d trace misses, want 1: the miss executed", misses)
	}
	// The kept trace is charged its encoding, and a miss copies it: once
	// written over, what was written is what the next miss serves.
	n := valuesLen(marshalAllocsValues)
	m.cache.mu.Lock()
	for _, el := range m.cache.traces.kept {
		e := el.Value.(*memoEntry[traceKey, keptTrace])
		if charge := int64(len(e.key.plan.digest)+len(e.key.kernel)+n) + e.v.trace.Size(); e.size != charge || len(e.v.encoded) != n {
			t.Errorf("a kept trace is charged %d bytes and holds %d encoded, want %d and %d", e.size, len(e.v.encoded), charge, n)
		}
		for i := range e.v.encoded {
			e.v.encoded[i] = 'A'
		}
	}
	m.cache.mu.Unlock()
	written, err := m.exec(ctx, snap, miss)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(written, []byte(`"values_b64":"`+strings.Repeat("A", n)+`"`)) {
		t.Error("a miss of a kept trace encoded its values again")
	}
	if raceEnabled {
		return
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := m.exec(ctx, snap, miss); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	ledger := uintptr(len(res.Records)) * unsafe.Sizeof(sim.Record{})
	for _, r := range res.Records {
		ledger += uintptr(len(r.PerPartition)) * unsafe.Sizeof(sim.PartitionRecord{})
	}
	const page = 8 << 10
	if perRun, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64((len(out)+page-1)/page*page)+uint64(ledger)+4096; perRun > limit {
		t.Errorf("a miss of a kept trace allocates %d bytes for a %d-byte result and a %d-byte ledger, want at most %d: its pages, its ledger and 4 KiB", perRun, len(out), ledger, limit)
	}
}
