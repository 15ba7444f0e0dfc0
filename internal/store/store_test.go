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
	"slices"
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
		// Priced at the edge ids alone, so the half budget thrashes for
		// the weight-free kernels, which pin nothing else, as well.
		totalCost := int64(0)
		for i := 0; i < full.NumSegments(); i++ {
			totalCost += full.segCost(int32(i), false)
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
// segment exactly once and reads nothing through, and the resident
// footprint — frames and read-through buffer — stays within the budget.
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
	// PageRank reads no weight, so its frames hold the edge ids alone.
	nSegs := probe.NumSegments()
	totalCost := int64(0)
	for i := 0; i < nSegs; i++ {
		totalCost += probe.segCost(int32(i), false)
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
		if s.Evictions != 0 {
			t.Fatalf("budget %d: %d evictions; a full tier reads through", budget, s.Evictions)
		}
		if budget == 0 {
			if s.Misses != int64(nSegs) || s.ReadThroughs != 0 {
				t.Fatalf("full cache: %d misses / %d read-throughs, want %d / 0", s.Misses, s.ReadThroughs, nSegs)
			}
		} else {
			if s.ReadThroughs == 0 {
				t.Fatalf("budget %d of %d: nothing read through", budget, totalCost)
			}
			if s.PeakResidentBytes > budget || budget < st.bufCost {
				t.Fatalf("budget %d (a read-through buffer is %d): peak resident %d", budget, st.bufCost, s.PeakResidentBytes)
			}
		}
		if prevFar >= 0 && s.FarBytes < prevFar {
			t.Fatalf("far traffic decreased when budget shrank: %d -> %d", prevFar, s.FarBytes)
		}
		prevFar = s.FarBytes
		mustClose(t, st)
	}
}

// equalSegments builds a container of nSegs segments with identical
// footprints — 8 vertices of out-degree 2 each, 64 decompressed bytes —
// and returns it with that footprint, so budgets count frames exactly.
func equalSegments(t *testing.T, nSegs int) (data []byte, segCost int64) {
	t.Helper()
	n := 8 * nSegs
	edges := make([]graph.Edge, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)},
			graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + n/2) % n)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = EncodeGraph(g, 64); err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, st)
	if st.NumSegments() != nSegs {
		t.Fatalf("fixture: %d segments, want %d", st.NumSegments(), nSegs)
	}
	for i := 0; i < nSegs; i++ {
		if st.segCost(int32(i), true) != 64 {
			t.Fatalf("fixture: segment %d costs %d bytes, want 64", i, st.segCost(int32(i), true))
		}
	}
	return data, 64
}

// pinSeg pins segment idx by its first vertex.
func pinSeg(t *testing.T, st *Store, idx int) graph.Segment {
	t.Helper()
	sg, err := st.Pin(graph.VertexID(st.segs[idx].first))
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestStoreSweepOrderEviction pins the replacement policy as exact
// counts. N equal segments swept in ascending order, again and again,
// under a budget of B frames and the read-through buffer (one frame's
// worth here): the first B segments load and stay, every later one is
// read through, so each pass after the cold one misses exactly N-B times
// — Belady's minimum once a miss may bypass the tier, where evicting in
// sweep order cost N(N-B)/(N-1) a pass. Nothing is evicted, and frames
// plus buffer never exceed the budget.
func TestStoreSweepOrderEviction(t *testing.T) {
	const nSegs, passes = 12, 20
	data, segCost := equalSegments(t, nSegs)
	for _, frames := range []int{0, 1, 2, 4, 7, 11, 12, 20} {
		budget := int64(frames+1) * segCost
		st, err := OpenBytes(data, Options{LocalBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if st.bufCost != segCost {
			t.Fatalf("fixture: a read-through buffer costs %d, want one frame, %d", st.bufCost, segCost)
		}
		pass := func() int64 {
			before := st.Stats().Misses
			for i := 0; i < nSegs; i++ {
				sg := pinSeg(t, st, i)
				sg.Release()
			}
			return st.Stats().Misses - before
		}
		if cold := pass(); cold != nSegs {
			t.Fatalf("%d frames: cold pass missed %d of %d", frames, cold, nSegs)
		}
		held := int64(min(frames, nSegs))
		through := nSegs - held
		for p := 0; p < passes; p++ {
			if m := pass(); m != through {
				t.Fatalf("%d frames, warm pass %d: %d misses, want N-B = %d", frames, p, m, through)
			}
		}
		s := st.Stats()
		if s.Evictions != 0 || s.ReadThroughs != through*(1+passes) || s.Misses != nSegs+through*passes {
			t.Fatalf("%d frames: stats %+v, want %d read-throughs a pass and no eviction", frames, s, through)
		}
		buffers := int64(0)
		if through > 0 {
			buffers = 1
		}
		if s.PeakResidentBytes > budget || s.ResidentBytes != (held+buffers)*segCost {
			t.Fatalf("%d frames: resident %d, peak %d, budget %d", frames, s.ResidentBytes, s.PeakResidentBytes, budget)
		}
		if s.Hits+s.Misses != int64(nSegs*(1+passes)) {
			t.Fatalf("%d frames: %d hits + %d misses over %d pins", frames, s.Hits, s.Misses, nSegs*(1+passes))
		}
		mustClose(t, st)
	}
}

// assertSegmentMatches compares every vertex of a pinned segment with
// the in-memory graph it was encoded from, bit for bit.
func assertSegmentMatches(t *testing.T, st *Store, sg graph.Segment, g *graph.Graph) {
	t.Helper()
	for v := sg.First; v < sg.End; v++ {
		nbrs, wts := neighbors(st, sg, v)
		if !reflect.DeepEqual(nbrs, g.Neighbors(v)) && len(nbrs)+len(g.Neighbors(v)) > 0 {
			t.Fatalf("vertex %d: neighbors %v, want %v", v, nbrs, g.Neighbors(v))
		}
		for i, w := range g.NeighborWeights(v) {
			if math.Float32bits(wts[i]) != math.Float32bits(w) {
				t.Fatalf("vertex %d: weight[%d] = %v, want %v", v, i, wts[i], w)
			}
		}
	}
}

// pinTrace drives one fixed pin sequence against a full budget —
// two ascending sweeps interleaved half a cycle apart, each holding its
// segment until its next step, then seeded random pins — checking every
// segment handed out against g.
func pinTrace(t *testing.T, st *Store, g *graph.Graph) {
	t.Helper()
	n := st.NumSegments()
	var a, b graph.Segment
	for step := 0; step < 3*n; step++ {
		a.Release()
		a = pinSeg(t, st, step%n)
		assertSegmentMatches(t, st, a, g)
		b.Release()
		b = pinSeg(t, st, (step+n/2)%n)
		assertSegmentMatches(t, st, b, g)
	}
	a.Release()
	b.Release()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		sg, err := st.Pin(graph.VertexID(r.Intn(g.NumVertices())))
		if err != nil {
			t.Fatal(err)
		}
		assertSegmentMatches(t, st, sg, g)
		sg.Release()
	}
}

// TestStorePinOrdersReturnIdenticalAdjacency runs pinTrace — orders other
// than one ascending sweep, two handles held at once — and requires
// bit-identical adjacency throughout and a tier that ends inside its
// budget with no pin left: the second read-through buffer a holder of
// two Pin handles takes over the budget is freed at Release.
func TestStorePinOrdersReturnIdenticalAdjacency(t *testing.T) {
	for name, g := range testGraphs(t) {
		st := openFixture(t, g, 256, 1536)
		pinTrace(t, st, g)
		s := st.Stats()
		if s.Pins != 0 || s.ReadThroughs == 0 || s.ResidentBytes > 1536 || st.bufs != 1 {
			t.Fatalf("%s: stats %+v after the trace", name, s)
		}
		mustClose(t, st)
	}
}

// TestStoreStatsDeterministic replays pinTrace on fresh handles and
// requires the same counters every time, equal to the recorded ones:
// what loads and what reads through is a pure function of the pin
// sequence, so nothing about the run — repetition, the race detector's
// scheduling — may move them.
func TestStoreStatsDeterministic(t *testing.T) {
	g := testGraphs(t)["community"]
	want := Stats{}
	for rep := 0; rep < 5; rep++ {
		st := openFixture(t, g, 256, 1536)
		pinTrace(t, st, g)
		got := st.Stats()
		mustClose(t, st)
		if rep == 0 {
			want = got
		} else if got != want {
			t.Fatalf("repetition %d: stats %+v, first run %+v", rep, got, want)
		}
	}
	recorded := Stats{Hits: 50, Misses: 752, ReadThroughs: 747, FarBytes: 131641, ResidentBytes: 1536, PeakResidentBytes: 1824}
	if want != recorded {
		t.Fatalf("stats %+v differ from the recorded %+v", want, recorded)
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
	var mem kernels.Source = g
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
		k := kerneltest.CancelAfter(mustKernel(t, "pagerank"), g.NumVertices()+10, cancel)
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

// assertListMatches compares vertex v's list in a pinned segment with
// the in-memory graph it was encoded from, bit for bit: the edge ids,
// and the weights when the handle lends them.
func assertListMatches(t *testing.T, st *Store, sg graph.Segment, g *graph.Graph, v graph.VertexID) {
	t.Helper()
	nbrs, wts := neighbors(st, sg, v)
	if !slices.Equal(nbrs, g.Neighbors(v)) {
		t.Errorf("vertex %d: neighbors %v, want %v", v, nbrs, g.Neighbors(v))
		return
	}
	if wts == nil {
		return
	}
	for i, w := range g.NeighborWeights(v) {
		if math.Float32bits(wts[i]) != math.Float32bits(w) {
			t.Errorf("vertex %d: weight[%d] = %v, want %v", v, i, wts[i], w)
			return
		}
	}
}

// servedRun is what a push loop reads from a PinLists handle: v's list,
// then those of the ascending rest while they are inside the segment.
func servedRun(sg graph.Segment, v graph.VertexID, rest []graph.VertexID) []graph.VertexID {
	run := []graph.VertexID{v}
	for _, u := range rest {
		if !sg.Contains(u) {
			break
		}
		run = append(run, u)
	}
	return run
}

// TestStorePinConcurrentHammer drives many goroutines through pin /
// read / release cycles against a budget of a read-through buffer and
// two frames, so most pins read through, and requires every list a
// handle serves to match the graph and the pins back at zero. PinLists
// traffic — the push loops' — holds the tier inside its budget: a
// read-through waits for a buffer another holder returns rather than
// take one over it. Pin and PinEdges, whose holders may hold several
// handles, take one over the budget instead, one per concurrent holder
// at most, freed at Release. Half the goroutines ask for weights, so
// frames gain their weights, or read them through, while others read
// their edge ids. Run under -race in check.sh, this is the tier's main
// concurrency gate.
func TestStorePinConcurrentHammer(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.bufCost + 2*probe.segCost(0, true)
	mustClose(t, probe)
	n := g.NumVertices()
	const workers = 8
	for _, whole := range []bool{false, true} {
		st, err := OpenBytes(data, Options{LocalBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				rest := make([]graph.VertexID, 0, 8)
				for i := 0; i < 2000; i++ {
					v := graph.VertexID(r.Intn(n))
					weights := r.Intn(2) == 0
					var sg graph.Segment
					var err error
					switch {
					case whole && weights:
						sg, err = st.Pin(v)
					case whole:
						sg, err = st.PinEdges(v)
					default:
						// An ascending run with gaps, some of it past the
						// segment, as a frontier is.
						rest = rest[:0]
						for u := int(v) + 1 + r.Intn(3); u < n && len(rest) < cap(rest); u += 1 + r.Intn(3) {
							rest = append(rest, graph.VertexID(u))
						}
						sg, err = st.PinLists(v, rest, weights)
					}
					if err != nil {
						t.Errorf("pin %d: %v", v, err)
						return
					}
					if weights != (sg.Weights != nil) {
						t.Errorf("vertex %d: weights asked %v, lent %v", v, weights, sg.Weights != nil)
					}
					if whole {
						for u := sg.First; u < sg.End; u++ {
							assertListMatches(t, st, sg, g, u)
						}
					} else {
						for _, u := range servedRun(sg, v, rest) {
							assertListMatches(t, st, sg, g, u)
						}
					}
					sg.Release()
				}
			}(int64(w + 1))
		}
		wg.Wait()
		s := st.Stats()
		if s.Pins != 0 || s.ReadThroughs == 0 || s.Evictions != 0 {
			t.Fatalf("whole segments %v: stats %+v, want no pin left and read-throughs", whole, s)
		}
		if limit := budget + (workers-1)*st.bufCost; whole && s.PeakResidentBytes > limit || !whole && s.PeakResidentBytes > budget {
			t.Fatalf("whole segments %v: peak resident %d, budget %d", whole, s.PeakResidentBytes, budget)
		}
		if st.listHolders != 0 || st.bufs != 1 || st.spare == nil {
			t.Fatalf("whole segments %v: %d list holders, %d buffers after the hammer; want 0 and the spare", whole, st.listHolders, st.bufs)
		}
		mustClose(t, st)
	}
}

// TestStoreStaysWithinBudget runs every kernel on both machines, the
// staged one on three workers that read through at once, over budgets
// from one read-through buffer and no frame up to half the container:
// the tier's peak, frames plus buffers, never exceeds the budget.
func TestStoreStaysWithinBudget(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	var mem kernels.Source = g
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < probe.NumSegments(); i++ {
		total += probe.segCost(int32(i), true)
	}
	buf := probe.bufCost
	mustClose(t, probe)
	for _, budget := range []int64{buf, buf + total/8, total / 2} {
		for _, machine := range []kernels.Machine{kernels.Serial, kernels.Staged} {
			opt := kernels.Options{Direction: kernels.DirectionPush, Workers: 3}
			st, err := OpenBytes(data, Options{LocalBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range kernels.Names() {
				ref, err := kernels.RunOn(context.Background(), mem, mustKernel(t, name), machine, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := kernels.RunOn(context.Background(), st, mustKernel(t, name), machine, opt)
				if err != nil {
					t.Fatalf("budget %d, machine %d, %s: %v", budget, machine, name, err)
				}
				assertResultsIdentical(t, name, got, ref)
				if s := st.Stats(); s.Pins != 0 || s.PeakResidentBytes > budget || s.ReadThroughs == 0 {
					t.Fatalf("budget %d, machine %d, after %s: stats %+v", budget, machine, name, s)
				}
			}
			mustClose(t, st)
		}
	}
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
// neighbor reads, release — to be allocation-free once the tier is warm
// and full, through Pin, PinEdges and PinLists: hits lend resident
// frames, and the misses read through the one spare buffer.
func TestStoreAllocGate(t *testing.T) {
	g := testGraphs(t)["community"]
	n := g.NumVertices()
	var evens []graph.VertexID // a frontier: every other vertex active
	for v := 0; v < n; v += 2 {
		evens = append(evens, graph.VertexID(v))
	}
	for _, mode := range []string{"Pin", "PinEdges", "PinLists"} {
		st := openFixture(t, g, 512, 2048) // small budget: the sweep both hits and reads through
		var sweep func()
		if mode == "PinLists" {
			// A push loop's sweep: one pin for each run it is served.
			sweep = func() {
				for i := 0; i < len(evens); {
					sg, err := st.PinLists(evens[i], evens[i+1:], false)
					if err != nil {
						t.Fatal(err)
					}
					for ; i < len(evens) && sg.Contains(evens[i]); i++ {
						_, _ = neighbors(st, sg, evens[i])
					}
					sg.Release()
				}
			}
		} else {
			pin := st.Pin
			if mode == "PinEdges" {
				pin = st.PinEdges
			}
			sweep = func() {
				for v := 0; v < n; v++ {
					sg, err := pin(graph.VertexID(v))
					if err != nil {
						t.Fatal(err)
					}
					_, _ = neighbors(st, sg, graph.VertexID(v))
					sg.Release()
				}
			}
		}
		sweep() // fill the tier and make the spare buffer
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
			t.Fatalf("%s: warm pin/read/release sweep allocates %v times per run", mode, allocs)
		}
		if s := st.Stats(); s.ReadThroughs == 0 || s.Hits == 0 {
			t.Fatalf("%s: stats %+v, want a sweep that both hits and reads through", mode, s)
		}
		mustClose(t, st)
	}
}

// TestStoreCloseWithPins requires Close to refuse while handles are
// outstanding: a leaked pin surfaces as an error at Close.
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
