package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/kernels/kerneltest"
)

// testGraphs returns the differential fixtures: a weighted community
// graph (hub skew, multiple components possible) and an unweighted grid
// (long diameter, many iterations).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	community, err := gen.Community(400, 8, 6, 0.85, gen.Config{Seed: 11, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(15, 15, gen.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"community": community, "grid": grid}
}

// openFixture encodes g and opens it with the given tier budget.
func openFixture(t *testing.T, g *graph.Graph, segBytes, localBytes int64) *Store {
	t.Helper()
	data, err := EncodeGraph(g, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(data, Options{LocalBytes: localBytes})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertResultsIdentical requires full bit-identity (NaN-aware on
// Values, deep-equal elsewhere).
func assertResultsIdentical(t *testing.T, label string, got, want *kernels.Result) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Values), len(want.Values))
	}
	for v := range want.Values {
		if got.Values[v] != want.Values[v] && !(math.IsNaN(got.Values[v]) && math.IsNaN(want.Values[v])) {
			t.Fatalf("%s: value[%d] = %v, want %v", label, v, got.Values[v], want.Values[v])
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.PushIterations != want.PushIterations || got.PullIterations != want.PullIterations ||
		got.EdgesInspected != want.EdgesInspected {
		t.Fatalf("%s: telemetry %d/%v/%d/%d/%d, want %d/%v/%d/%d/%d", label,
			got.Iterations, got.Converged, got.PushIterations, got.PullIterations, got.EdgesInspected,
			want.Iterations, want.Converged, want.PushIterations, want.PullIterations, want.EdgesInspected)
	}
	if !reflect.DeepEqual(got.FrontierSizes, want.FrontierSizes) {
		t.Fatalf("%s: frontier sizes %v, want %v", label, got.FrontierSizes, want.FrontierSizes)
	}
	if !reflect.DeepEqual(got.ActiveEdges, want.ActiveEdges) {
		t.Fatalf("%s: active edges %v, want %v", label, got.ActiveEdges, want.ActiveEdges)
	}
}

// runOOC executes k out-of-core: the kernel engine's serial machine with
// the container as its adjacency source — what core.StoreEngine runs.
func runOOC(ctx context.Context, st *Store, k kernels.Kernel) (*kernels.Result, error) {
	return kernels.RunOn(ctx, st, k, kernels.Serial, kernels.Options{})
}

// neighbors reads v's adjacency out of a pinned segment covering it.
func neighbors(st *Store, sg graph.Segment, v graph.VertexID) ([]graph.VertexID, []float32) {
	lo, hi := st.Vertices().EdgeRange(v)
	lo, hi = lo-sg.Base, hi-sg.Base
	if sg.Weights == nil {
		return sg.Edges[lo:hi], nil
	}
	return sg.Edges[lo:hi], sg.Weights[lo:hi]
}

func mustKernel(t *testing.T, name string) kernels.Kernel {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestStoreMatchesInMemory is the headline differential: for every
// registry kernel, on every fixture, the engine reading from the
// container produces a Result bit-identical to the in-memory push-serial
// reference over the materialized container — at full cache, at ~50%,
// and at a budget so small segments thrash on every switch. Worker-count
// independence of the in-memory staged machine is pinned by its own
// suite; here we additionally require the staged machine at several
// worker counts, over the materialized graph and over the container
// itself (each chunk pinning its own segments), to agree with the same
// reference — closing the kernels × sources × workers matrix against
// one ground truth.
func TestStoreMatchesInMemory(t *testing.T) {
	for gname, g := range testGraphs(t) {
		data, err := EncodeGraph(g, 256)
		if err != nil {
			t.Fatal(err)
		}
		full, err := OpenBytes(data, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mat, err := full.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		totalCost := int64(0)
		for i := 0; i < full.NumSegments(); i++ {
			totalCost += full.segCost(int32(i))
		}
		mustClose(t, full)

		for _, name := range kernels.Names() {
			if err := kernels.CheckGraph(mat, mustKernel(t, name)); err != nil {
				continue // e.g. weighted kernels on the unweighted grid
			}
			t.Run(gname+"/"+name, func(t *testing.T) {
				ref, err := kernels.RunSerialWith(mat, mustKernel(t, name), kernels.Options{Direction: kernels.DirectionPush})
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []int64{0, totalCost / 2, 1} {
					st, err := OpenBytes(data, Options{LocalBytes: budget})
					if err != nil {
						t.Fatal(err)
					}
					got, err := runOOC(context.Background(), st, mustKernel(t, name))
					if err != nil {
						t.Fatalf("budget %d: %v", budget, err)
					}
					assertResultsIdentical(t, gname+"/"+name, got, ref)
					if s := st.Stats(); s.Pins != 0 {
						t.Fatalf("budget %d: %d pins leaked", budget, s.Pins)
					}
					mustClose(t, st)
				}
				for _, workers := range []int{1, 3} {
					opt := kernels.Options{Direction: kernels.DirectionPush, Workers: workers}
					par, err := kernels.Run(mat, mustKernel(t, name), opt)
					if err != nil {
						t.Fatal(err)
					}
					st, err := OpenBytes(data, Options{LocalBytes: totalCost / 2})
					if err != nil {
						t.Fatal(err)
					}
					ooc, err := kernels.RunOn(context.Background(), st, mustKernel(t, name), kernels.Staged, opt)
					if err != nil {
						t.Fatalf("staged over the container, workers %d: %v", workers, err)
					}
					if !reflect.DeepEqual(ooc, par) {
						t.Fatalf("workers %d: staged over the container differs from staged over Materialize():\n got %+v\nwant %+v", workers, ooc, par)
					}
					if s := st.Stats(); s.Pins != 0 {
						t.Fatalf("staged, workers %d: %d pins leaked", workers, s.Pins)
					}
					mustClose(t, st)
					if mustKernel(t, name).Traits().Agg == kernels.AggSum {
						// The staged machine reassociates float sums by its
						// fixed chunk grid; exact equality holds only for the
						// order-independent min/max aggregates.
						continue
					}
					assertResultsIdentical(t, gname+"/"+name+"/staged", par, ref)
				}
			})
		}
	}
}

// TestStoreTierPressure drives a sweep of shrinking budgets and checks
// the tier telemetry behaves like a cache should: far-memory traffic is
// monotone non-increasing in budget, the full-cache run misses each
// segment exactly once, and the resident footprint respects the budget.
func TestStoreTierPressure(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nSegs := probe.NumSegments()
	totalCost := int64(0)
	maxCost := int64(0)
	for i := 0; i < nSegs; i++ {
		totalCost += probe.segCost(int32(i))
		if c := probe.segCost(int32(i)); c > maxCost {
			maxCost = c
		}
	}
	mustClose(t, probe)
	if nSegs < 4 {
		t.Fatalf("fixture too small: %d segments", nSegs)
	}

	var prevFar int64 = -1
	for _, budget := range []int64{0, totalCost / 2, totalCost / 10} {
		st, err := OpenBytes(data, Options{LocalBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOOC(context.Background(), st, mustKernel(t, "pagerank")); err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if budget == 0 {
			if s.Misses != int64(nSegs) || s.Evictions != 0 {
				t.Fatalf("full cache: %d misses / %d evictions, want %d / 0", s.Misses, s.Evictions, nSegs)
			}
		} else {
			if s.Evictions == 0 {
				t.Fatalf("budget %d of %d: no evictions", budget, totalCost)
			}
			if s.PeakResidentBytes > budget+maxCost {
				// One pinned segment may overshoot; more than that is a
				// budget-enforcement bug.
				t.Fatalf("budget %d: peak resident %d", budget, s.PeakResidentBytes)
			}
		}
		if prevFar >= 0 && s.FarBytes < prevFar {
			t.Fatalf("far traffic decreased when budget shrank: %d -> %d", prevFar, s.FarBytes)
		}
		prevFar = s.FarBytes
		mustClose(t, st)
	}
}

// TestStoreRunCancellation cancels mid-traversal and requires the engine
// to unwind at the next iteration boundary with context.Canceled, zero
// outstanding pins, and a source still healthy enough to run to
// completion afterwards — over the container on both machines, and over
// the in-memory graph, where a run used to be uncancellable once begun.
func TestStoreRunCancellation(t *testing.T) {
	g := testGraphs(t)["community"]
	st := openFixture(t, g, 256, 1)
	mem, err := kernels.InMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		src     kernels.Source
		machine kernels.Machine
	}{
		{"container", st, kernels.Serial},
		{"container-staged", st, kernels.Staged},
		{"memory", mem, kernels.Serial},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		k := kerneltest.CancelAfter(mustKernel(t, "pagerank"), int(g.NumEdges())+10, cancel)
		res, err := kernels.RunOn(ctx, tc.src, k, tc.machine, kernels.Options{Workers: 3})
		cancel()
		if err != context.Canceled || res != nil {
			t.Fatalf("%s: result %v, err = %v, want nil, context.Canceled", tc.name, res, err)
		}
		if s := st.Stats(); s.Pins != 0 {
			t.Fatalf("%s: %d pins outstanding after cancellation", tc.name, s.Pins)
		}
		if _, err := kernels.RunOn(context.Background(), tc.src, mustKernel(t, "bfs"), tc.machine, kernels.Options{}); err != nil {
			t.Fatalf("%s: source unusable after cancelled run: %v", tc.name, err)
		}
	}
	mustClose(t, st)
}

// TestStoreRunCorruptSegment flips one payload byte in a later segment —
// past anything Open or the first iterations touch — and requires a BFS
// that reaches it to end with the store's typed ErrCorrupt, every pin
// released, and a store that still closes cleanly, on both machines.
func TestStoreRunCorruptSegment(t *testing.T) {
	g := testGraphs(t)["grid"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := probe.segs[len(probe.segs)-1]
	if len(probe.segs) < 4 || last.len == 0 {
		t.Fatalf("fixture: %d segments, last payload %d bytes", len(probe.segs), last.len)
	}
	mustClose(t, probe)
	bad := append([]byte(nil), data...)
	bad[last.off+last.len/2] ^= 0x40

	for _, machine := range []kernels.Machine{kernels.Serial, kernels.Staged} {
		st, err := OpenBytes(bad, Options{})
		if err != nil {
			t.Fatalf("open must not touch segment payloads: %v", err)
		}
		res, err := kernels.RunOn(context.Background(), st, kernels.NewBFS(0), machine, kernels.Options{Workers: 3})
		if !errors.Is(err, ErrCorrupt) || res != nil {
			t.Fatalf("machine %d: result %v, err = %v, want nil, ErrCorrupt", machine, res, err)
		}
		if s := st.Stats(); s.Pins != 0 || s.Misses == 0 {
			t.Fatalf("machine %d: %d pins outstanding, %d segments read before the corrupt one", machine, s.Pins, s.Misses)
		}
		mustClose(t, st)
	}
}

// TestStorePinConcurrentHammer drives many goroutines through pin /
// read / release cycles against a budget that forces constant eviction,
// then requires refcounts and residency back at baseline. Run under
// -race in check.sh, this is the tier's main concurrency gate.
func TestStorePinConcurrentHammer(t *testing.T) {
	g := testGraphs(t)["community"]
	st := openFixture(t, g, 128, 512) // tiny budget: pins routinely overshoot and collide
	n := g.NumVertices()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				v := graph.VertexID(r.Intn(n))
				sg, err := st.Pin(v)
				if err != nil {
					t.Errorf("pin %d: %v", v, err)
					return
				}
				nbrs, wts := neighbors(st, sg, v)
				for _, d := range nbrs {
					if int(d) >= n {
						t.Errorf("vertex %d: neighbor %d out of range", v, d)
					}
				}
				if wts != nil && len(wts) != len(nbrs) {
					t.Errorf("vertex %d: %d weights for %d neighbors", v, len(wts), len(nbrs))
				}
				sg.Release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := st.Stats()
	if s.Pins != 0 {
		t.Fatalf("%d pins outstanding after hammer", s.Pins)
	}
	if s.Evictions == 0 {
		t.Fatal("hammer never evicted; budget too large to stress the tier")
	}
	for i := range st.frames {
		if st.frames[i].refs != 0 {
			t.Fatalf("frame %d refcount %d after hammer", i, st.frames[i].refs)
		}
	}
	mustClose(t, st)
}

// TestStoreLeavesNoGoroutines pins the design point that the store layer
// is goroutine-free: open/run/close churn must not change the count.
func TestStoreLeavesNoGoroutines(t *testing.T) {
	g := testGraphs(t)["grid"]
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		st := openFixture(t, g, 256, 1024)
		if _, err := runOOC(context.Background(), st, mustKernel(t, "bfs")); err != nil {
			t.Fatal(err)
		}
		mustClose(t, st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d", before, after)
	}
}

// TestStoreAllocGate requires the steady-state segment-read path — pin,
// neighbor reads, release, including misses served from the eviction
// freelist — to be allocation-free once the tier is warm.
func TestStoreAllocGate(t *testing.T) {
	g := testGraphs(t)["community"]
	st := openFixture(t, g, 512, 2048) // small budget: the sweep both hits and thrashes
	n := g.NumVertices()
	sweep := func() {
		for v := 0; v < n; v++ {
			sg, err := st.Pin(graph.VertexID(v))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = neighbors(st, sg, graph.VertexID(v))
			sg.Release()
		}
	}
	sweep() // warm the freelist and scratch
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Fatalf("warm pin/read/release sweep allocates %v times per run", allocs)
	}
}

// TestStoreCloseWithPins requires Close to refuse while handles are
// outstanding — the leak the //lint:pair rule exists to prevent.
func TestStoreCloseWithPins(t *testing.T) {
	st := openFixture(t, goldenGraph(t), 16, 0)
	sg, err := st.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("Close with a pin returned %v", err)
	}
	sg.Release()
	mustClose(t, st)
}

// TestStoreDigest checks the content address is the SHA-256 of the raw
// container bytes and is stable across calls.
func TestStoreDigest(t *testing.T) {
	g := goldenGraph(t)
	data, err := EncodeGraph(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sum := sha256.Sum256(data)
	want := "sha256:" + hex.EncodeToString(sum[:])
	for i := 0; i < 2; i++ {
		got, err := st.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("digest %s, want %s", got, want)
		}
	}
}

// TestStoreFileBacked exercises OpenFile (mmap on Linux, pread
// elsewhere) end to end: round-trip equality and an out-of-core run.
func TestStoreFileBacked(t *testing.T) {
	g := testGraphs(t)["community"]
	path := t.TempDir() + "/g.gcsr2"
	if err := SaveGraphFile(path, g, 256); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFile(path, Options{LocalBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, mat, g)
	ref, err := kernels.RunSerialWith(mat, mustKernel(t, "sssp"), kernels.Options{Direction: kernels.DirectionPush})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOOC(context.Background(), st, mustKernel(t, "sssp"))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "file-backed sssp", got, ref)
	mustClose(t, st)
}

// TestCheckKernel covers kernel validation against a container: the one
// kernels.CheckGraph, reading the facts the store reports.
func TestCheckKernel(t *testing.T) {
	unweighted, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := openFixture(t, unweighted, 64, 0)
	defer st.Close()
	if err := kernels.CheckGraph(st, mustKernel(t, "sssp")); err == nil {
		t.Fatal("sssp accepted an unweighted container")
	}

	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, -2)
	neg, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	negStore := openFixture(t, neg, 64, 0)
	defer negStore.Close()
	if negStore.NonNegativeWeights() {
		t.Fatal("writer failed to record the negative weight")
	}
	if err := kernels.CheckGraph(negStore, mustKernel(t, "sssp")); err == nil {
		t.Fatal("sssp accepted negative weights")
	}
	if err := kernels.CheckGraph(negStore, kernels.NewBFS(99)); err == nil {
		t.Fatal("accepted out-of-range source")
	}
}
