package kernels

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// gatherKernels returns one instance of every registry kernel that
// implements GatherKernel (the pull-capable set), on source 0 for the
// sourced ones.
func gatherKernels(t *testing.T) []GatherKernel {
	t.Helper()
	var out []GatherKernel
	for _, k := range All() {
		if gk, ok := k.(GatherKernel); ok {
			out = append(out, gk)
		}
	}
	if len(out) < 4 {
		t.Fatalf("expected at least bfs/cc/sssp/sswp/reach to implement GatherKernel, got %d", len(out))
	}
	return out
}

// directionResults runs k under all three direction modes on the serial
// machine.
func directionResults(t *testing.T, g *graph.Graph, mk func() Kernel) (push, pull, auto *Result) {
	t.Helper()
	var err error
	if push, err = RunSerialWith(g, mk(), Options{Direction: DirectionPush}); err != nil {
		t.Fatal(err)
	}
	if pull, err = RunSerialWith(g, mk(), Options{Direction: DirectionPull}); err != nil {
		t.Fatal(err)
	}
	if auto, err = RunSerialWith(g, mk(), Options{Direction: DirectionAuto}); err != nil {
		t.Fatal(err)
	}
	return push, pull, auto
}

// assertSharedFieldsEqual fails unless the two results agree bit-exactly
// on every field both directions are required to share (everything
// except the direction telemetry itself).
func assertSharedFieldsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for v := range want.Values {
		if got.Values[v] != want.Values[v] && !(math.IsNaN(got.Values[v]) && math.IsNaN(want.Values[v])) {
			t.Fatalf("%s: value[%d] = %v, want %v", label, v, got.Values[v], want.Values[v])
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged = %d/%v, want %d/%v",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if !reflect.DeepEqual(got.FrontierSizes, want.FrontierSizes) {
		t.Fatalf("%s: frontier sizes %v, want %v", label, got.FrontierSizes, want.FrontierSizes)
	}
	if !reflect.DeepEqual(got.ActiveEdges, want.ActiveEdges) {
		t.Fatalf("%s: active edges %v, want %v", label, got.ActiveEdges, want.ActiveEdges)
	}
}

// TestEngineDirectionsBitIdentical is the heart of the pull soundness
// claim: for every GatherKernel, forced pull and auto produce exactly
// the push result — Values bit-equal, same iteration trajectory — on a
// weighted community graph.
func TestEngineDirectionsBitIdentical(t *testing.T) {
	g := socialGraph(t)
	for _, gk := range gatherKernels(t) {
		name := gk.Name()
		t.Run(name, func(t *testing.T) {
			mk := func() Kernel { k, err := ByName(name); mustNoErr(t, err); return k }
			push, pull, auto := directionResults(t, g, mk)
			assertSharedFieldsEqual(t, "pull-vs-push", pull, push)
			assertSharedFieldsEqual(t, "auto-vs-push", auto, push)
			if push.PullIterations != 0 || push.PushIterations != push.Iterations {
				t.Errorf("push run direction telemetry: %d push / %d pull over %d iterations",
					push.PushIterations, push.PullIterations, push.Iterations)
			}
			if pull.PushIterations != 0 || pull.PullIterations != pull.Iterations {
				t.Errorf("pull run direction telemetry: %d push / %d pull over %d iterations",
					pull.PushIterations, pull.PullIterations, pull.Iterations)
			}
		})
	}
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineDirectionsOnAwkwardGraphs extends the differential to the
// shapes that break naive pull implementations: disconnected components
// (unreached vertices must stay at their initial value, not get probed
// into activation) and self-loops (a frontier vertex is its own
// in-neighbor).
func TestEngineDirectionsOnAwkwardGraphs(t *testing.T) {
	// Two components: a 6-cycle reachable from source 0 and an isolated
	// triangle, plus self-loops on both sides of the cut.
	b := graph.NewBuilder(9)
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%6), 1)
	}
	b.AddEdge(2, 2, 1) // self-loop inside the reachable component
	for i := 6; i < 9; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(6+(i-5)%3), 1)
	}
	b.AddEdge(7, 7, 1) // self-loop in the unreachable component
	g, err := b.Build()
	mustNoErr(t, err)

	for _, name := range []string{"bfs", "cc", "reach"} {
		t.Run(name, func(t *testing.T) {
			mk := func() Kernel { k, err := ByName(name); mustNoErr(t, err); return k }
			push, pull, auto := directionResults(t, g, mk)
			assertSharedFieldsEqual(t, "pull-vs-push", pull, push)
			assertSharedFieldsEqual(t, "auto-vs-push", auto, push)
		})
	}
}

// TestEngineHybridMatchesPushProperty is the randomized property test:
// across RMAT and sparse Erdős–Rényi graphs (self-loops kept, many
// disconnected vertices), hybrid BFS and CC stay bit-identical to
// push-only.
func TestEngineHybridMatchesPushProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rmat, err := gen.RMATGraph500(8, 8, gen.Config{Seed: seed})
		mustNoErr(t, err)
		er, err := gen.ErdosRenyi(300, 450, gen.Config{Seed: seed})
		mustNoErr(t, err)
		for _, tc := range []struct {
			label string
			g     *graph.Graph
		}{{"rmat", rmat}, {"er", er}} {
			for _, name := range []string{"bfs", "cc"} {
				mk := func() Kernel { k, err := ByName(name); mustNoErr(t, err); return k }
				push, pull, auto := directionResults(t, tc.g, mk)
				label := tc.label + "/" + name
				assertSharedFieldsEqual(t, label+"/pull", pull, push)
				assertSharedFieldsEqual(t, label+"/auto", auto, push)
			}
		}
	}
}

// TestEngineAutoShrinksInspectedOnHubGraph pins the payoff: on the
// hub-heavy twitter7 stand-in, auto BFS chooses pull for the dense
// middle iterations and inspects less than half the edges push probes.
func TestEngineAutoShrinksInspectedOnHubGraph(t *testing.T) {
	g := hubGraph(t)
	push, err := RunSerialWith(g, NewBFS(0), Options{Direction: DirectionPush})
	mustNoErr(t, err)
	auto, err := RunSerialWith(g, NewBFS(0), Options{Direction: DirectionAuto})
	mustNoErr(t, err)
	assertSharedFieldsEqual(t, "auto-vs-push", auto, push)
	if auto.PullIterations == 0 {
		t.Fatal("auto BFS never chose pull on the hub-heavy stand-in")
	}
	if auto.EdgesInspected*2 > push.EdgesInspected {
		t.Fatalf("auto inspected %d of %d push edges; want at least a 2x reduction",
			auto.EdgesInspected, push.EdgesInspected)
	}
}

// TestEngineBitIdenticalAtEveryWorkerCount is the parallel-runner fix's
// contract: the staged machine's FULL Result — values, telemetry, and
// the new direction counters — is reflect.DeepEqual across worker
// counts for every kernel, float-sum kernels included.
func TestEngineBitIdenticalAtEveryWorkerCount(t *testing.T) {
	g := socialGraph(t)
	for _, k := range All() {
		name := k.Name()
		t.Run(name, func(t *testing.T) {
			mk := func() Kernel { k, err := ByName(name); mustNoErr(t, err); return k }
			ref, err := Run(g, mk(), Options{Workers: 1})
			mustNoErr(t, err)
			for _, w := range []int{2, 3, 5, 8, 64, 0} {
				got, err := Run(g, mk(), Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: Result differs from workers=1:\n got %+v\nwant %+v", w, got, ref)
				}
			}
		})
	}
}

// TestEngineStagedDirectionsBitIdentical runs the direction differential
// on the staged machine too: Run with forced pull equals Run with forced
// push at several worker counts.
func TestEngineStagedDirectionsBitIdentical(t *testing.T) {
	g := socialGraph(t)
	for _, w := range []int{1, 4} {
		push, err := Run(g, NewBFS(0), Options{Workers: w, Direction: DirectionPush})
		mustNoErr(t, err)
		pull, err := Run(g, NewBFS(0), Options{Workers: w, Direction: DirectionPull})
		mustNoErr(t, err)
		assertSharedFieldsEqual(t, "staged pull-vs-push", pull, push)
	}
}

// TestEnginePullRequiresGatherKernel pins the error path: forcing pull
// on a kernel without a gather implementation must fail up front, for
// both machines.
func TestEnginePullRequiresGatherKernel(t *testing.T) {
	g := socialGraph(t)
	k := NewPageRank(5, 0.85)
	if _, err := RunSerialWith(g, k, Options{Direction: DirectionPull}); err == nil ||
		!strings.Contains(err.Error(), "GatherKernel") {
		t.Fatalf("serial forced pull on pagerank: err = %v, want GatherKernel error", err)
	}
	if _, err := Run(g, k, Options{Direction: DirectionPull}); err == nil {
		t.Fatal("staged forced pull on pagerank succeeded")
	}
	if _, err := RunSerialWith(g, k, Options{Direction: Direction(42)}); err == nil {
		t.Fatal("unknown direction accepted")
	}
}

// TestEngineAllocGate pins the allocation-free steady state the engine
// exists for: once the buffers are warm, one full prepare/traverse/apply
// iteration allocates nothing — on the serial machine, the staged
// machine (Workers=1, keeping the phase dispatch on its inline path, and
// Workers=2, through the pool), the pull direction, over a container whose
// tier is warm and fully resident (every Pin a hit; PageRank's EdgeCopy
// pins the edge ids alone, then SSSP's Pin adds the weights), over one
// whose tier is full and thrashing (most pins read through its one spare
// buffer, SSSP's the weights of lists whose ids are resident), and under
// an ownership grid whose observer reads everything it is lent (the
// shape internal/sim runs in). The staged lists are sized exactly, so the
// gate also checks that a warm list is refilled in place, not made again.
func TestEngineAllocGate(t *testing.T) {
	g := socialGraph(t)
	var mem Source = g
	data, err := store.EncodeGraph(g, 1<<10)
	mustNoErr(t, err)
	st, err := store.OpenBytes(data, store.Options{})
	mustNoErr(t, err)
	thrash, err := store.OpenBytes(data, store.Options{LocalBytes: g.NumEdges() * 8 / 4})
	mustNoErr(t, err)
	var lent int64
	grid := &Grid{Chunks: 4, ChunkOf: stripedGrid(g.NumVertices(), 4), Observe: func(it *Iteration) {
		lent += it.DistinctDsts + it.Next.Count()
		for c := 0; c < 4; c++ {
			lent += int64(len(it.Frontier(c))) + it.Partials(c) + it.RemotePartials(c)
		}
	}}
	cases := []struct {
		name   string
		src    Source
		kernel Kernel
		opt    Options
		staged bool
	}{
		{"serial-pagerank", mem, NewPageRank(0, 0.85), Options{}, false},
		{"staged-pagerank", mem, NewPageRank(0, 0.85), Options{Workers: 1}, true},
		{"serial-cc-pull", mem, NewConnectedComponents(), Options{Direction: DirectionPull}, false},
		{"staged-cc-pull", mem, NewConnectedComponents(), Options{Workers: 1, Direction: DirectionPull}, true},
		{"serial-pagerank-container", st, NewPageRank(0, 0.85), Options{}, false},
		{"staged-pagerank-container", st, NewPageRank(0, 0.85), Options{Workers: 1}, true},
		{"serial-sssp-container", st, NewSSSP(0), Options{}, false},
		{"serial-pagerank-container-thrashing", thrash, NewPageRank(0, 0.85), Options{}, false},
		{"staged-pagerank-container-thrashing", thrash, NewPageRank(0, 0.85), Options{Workers: 1}, true},
		{"serial-sssp-container-thrashing", thrash, NewSSSP(0), Options{}, false},
		{"staged-pagerank-gridded", mem, NewPageRank(0, 0.85), Options{Workers: 1, Grid: grid}, true},
		{"staged-pagerank-pool", mem, NewPageRank(0, 0.85), Options{Workers: 2}, true},
		{"staged-pagerank-gridded-pool", mem, NewPageRank(0, 0.85), Options{Workers: 2, Grid: grid}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := newEngine(tc.src, tc.kernel, tc.opt, tc.staged)
			mustNoErr(t, err)
			defer e.close()
			iter := 0
			step := func() {
				// One run() iteration minus the Result bookkeeping, whose
				// appends are a legitimate amortized per-iteration cost.
				e.prepare(iter)
				e.traverse()
				mustNoErr(t, e.err)
				if e.hasSK {
					e.frontier.ForEach(e.sk.OnScattered)
				}
				next, _ := e.apply()
				if e.tr.AllVerticesActive {
					next.ActivateAll()
				}
				e.lend(next)
				e.spare, e.frontier = e.frontier, next
				iter++
			}
			for i := 0; i < 3; i++ {
				step() // warm the staged lists, scratch stamps, frontiers, and tier
			}
			var warm []*stagedUpdate
			for _, list := range e.chunkUpd {
				warm = append(warm, backing(list))
			}
			step()
			for c, list := range e.chunkUpd {
				if backing(list) != warm[c] {
					t.Fatalf("chunk %d's warm staged list was reallocated by a fourth iteration", c)
				}
			}
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				t.Fatalf("steady-state iteration allocates %.1f times, want 0", allocs)
			}
			if tc.src == st {
				// The container cases run in table order: until SSSP, the
				// tier holds the edge ids alone.
				want := g.NumEdges() * 4
				if tc.kernel.Traits().Edge != EdgeCopy {
					want *= 2
				}
				if got := st.Stats().ResidentBytes; got != want {
					t.Fatalf("tier holds %d bytes after %s, want %d", got, tc.name, want)
				}
			}
		})
	}
	if lent == 0 {
		t.Fatal("the gridded case never reached its observer")
	}
	if pins := st.Stats().Pins; pins != 0 {
		t.Fatalf("%d pins outstanding after the container cases", pins)
	}
	if s := thrash.Stats(); s.Pins != 0 || s.ReadThroughs == 0 || s.Hits == 0 {
		t.Fatalf("thrashing tier: stats %+v, want pins released, hits and read-throughs", s)
	}
	mustNoErr(t, st.Close())
	mustNoErr(t, thrash.Close())
}

// TestEnginePushesOnlyWithoutInAdjacency pins the storage axis of the
// direction choice: over a source that serves no in-edges (a container)
// auto never pulls, on a graph where it does pull in memory, and forced
// pull is an error rather than a silent push.
func TestEnginePushesOnlyWithoutInAdjacency(t *testing.T) {
	g := hubGraph(t)
	data, err := store.EncodeGraph(g, 16<<10)
	mustNoErr(t, err)
	st, err := store.OpenBytes(data, store.Options{})
	mustNoErr(t, err)
	defer st.Close()
	if hybridBFS(t, g, 0).PullIterations == 0 {
		t.Fatal("fixture never pulls in memory; the container half proves nothing")
	}
	ooc, err := RunOn(context.Background(), st, NewBFS(0), Serial, Options{})
	mustNoErr(t, err)
	push, err := RunSerialWith(g, NewBFS(0), Options{Direction: DirectionPush})
	mustNoErr(t, err)
	if !reflect.DeepEqual(ooc, push) {
		t.Fatalf("auto over a container differs from forced push in memory:\n got %+v\nwant %+v", ooc, push)
	}
	if _, err := RunOn(context.Background(), st, NewBFS(0), Serial, Options{Direction: DirectionPull}); err == nil ||
		!strings.Contains(err.Error(), "in-adjacency") {
		t.Fatalf("forced pull over a container: err = %v, want in-adjacency error", err)
	}
}

// The tests below came over from the RunParallel and
// RunBFSDirectionOptimized wrappers when those were deleted; they drive
// the same behaviour through Run and RunSerialWith.

// hubGraph is the hub-heavy twitter7 stand-in, whose explosive middle
// frontiers make auto choose pull.
func hubGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 7, DropSelfLoops: true})
	mustNoErr(t, err)
	return g
}

// chainGraph is a directed path 0→1→…→n-1: n-1 BFS levels, never more
// than one frontier vertex.
func chainGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g, err := b.Build()
	mustNoErr(t, err)
	return g
}

// hybridBFS is direction-optimized BFS: the serial machine under
// DirectionAuto with the default alpha/beta.
func hybridBFS(t testing.TB, g *graph.Graph, src graph.VertexID) *Result {
	t.Helper()
	res, err := RunSerialWith(g, NewBFS(src), Options{})
	mustNoErr(t, err)
	return res
}

func TestParallelMatchesSerialAllKernels(t *testing.T) {
	g := socialGraph(t)
	for _, k := range All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			ref, err := RunSerial(g, k)
			mustNoErr(t, err)
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := Run(g, k, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				tol := 0.0
				if k.Traits().Agg == AggSum && k.Traits().UsesFloatingPoint {
					tol = 1e-11 // association order differs across chunks
				}
				for v := range ref.Values {
					a, b := got.Values[v], ref.Values[v]
					if math.IsInf(a, 1) && math.IsInf(b, 1) {
						continue
					}
					if d := math.Abs(a - b); d > tol {
						t.Fatalf("workers=%d: value[%d] = %g, serial %g", workers, v, a, b)
					}
				}
				if got.Iterations != ref.Iterations {
					t.Errorf("workers=%d: iterations %d, serial %d", workers, got.Iterations, ref.Iterations)
				}
			}
		})
	}
}

func TestParallelDeterministicPerWorkerCount(t *testing.T) {
	g := socialGraph(t)
	k := NewPageRank(10, 0.85)
	r1, err := Run(g, k, Options{Workers: 4})
	mustNoErr(t, err)
	r2, err := Run(g, k, Options{Workers: 4})
	mustNoErr(t, err)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same worker count diverged run over run")
	}
}

func TestParallelFrontierAccountingMatchesSerial(t *testing.T) {
	g := socialGraph(t)
	ref, err := RunSerial(g, NewBFS(0))
	mustNoErr(t, err)
	got, err := Run(g, NewBFS(0), Options{Workers: 4})
	mustNoErr(t, err)
	assertSharedFieldsEqual(t, "staged-vs-serial", got, ref)
}

func TestParallelMoreWorkersThanVertices(t *testing.T) {
	g, err := gen.ErdosRenyi(5, 12, gen.Config{Seed: 1})
	mustNoErr(t, err)
	_, err = Run(g, NewConnectedComponents(), Options{Workers: 64})
	mustNoErr(t, err)
}

func TestParallelRequiresWeightsToo(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 150, gen.Config{Seed: 2})
	mustNoErr(t, err)
	if _, err := Run(g, NewSSSP(0), Options{Workers: 4}); !errors.Is(err, ErrNeedsWeights) {
		t.Errorf("staged sssp on an unweighted graph: err = %v, want ErrNeedsWeights", err)
	}
}

func TestDirOptMatchesClassicBFS(t *testing.T) {
	community, err := gen.Community(2000, 10, 6, 0.9, gen.Config{Seed: 7, DropSelfLoops: true})
	mustNoErr(t, err)
	grid, err := gen.Grid(30, 30, gen.Config{Seed: 7})
	mustNoErr(t, err)
	for name, g := range map[string]*graph.Graph{"rmat": hubGraph(t), "community": community, "grid": grid} {
		for _, src := range []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2)} {
			want := BFSClassic(g, src)
			got := hybridBFS(t, g, src).Values
			for v := range want {
				if got[v] != want[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
					t.Fatalf("%s src=%d: level[%d] = %g, want %g", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestDirOptUsesPullOnDenseGraph(t *testing.T) {
	// The hybrid must choose pull in the explosive middle iterations and
	// inspect fewer edges than the nominal (pure push) frontier volume.
	res := hybridBFS(t, hubGraph(t), 0)
	if res.PullIterations == 0 {
		t.Error("hybrid never chose pull on an RMAT graph")
	}
	var pushEdges int64
	for _, e := range res.ActiveEdges {
		pushEdges += e
	}
	if res.EdgesInspected >= pushEdges {
		t.Errorf("hybrid inspected %d edges, push %d — no win", res.EdgesInspected, pushEdges)
	}
}

func TestDirOptStaysPushOnHighDiameterGraph(t *testing.T) {
	// A long chain never has a large frontier: the hybrid must never pull.
	if res := hybridBFS(t, chainGraph(t, 2000), 0); res.PullIterations != 0 {
		t.Errorf("hybrid pulled %d times on a chain", res.PullIterations)
	}
}

func TestDirOptSourceRange(t *testing.T) {
	g, err := gen.ErdosRenyi(10, 20, gen.Config{Seed: 1})
	mustNoErr(t, err)
	if _, err := RunSerialWith(g, NewBFS(99), Options{}); err == nil {
		t.Error("accepted out-of-range source")
	}
}

// TestDirOptTransposeCachedAcrossRuns pins that the transpose is built
// once per graph and shared by every hybrid run, not rebuilt per call.
func TestDirOptTransposeCachedAcrossRuns(t *testing.T) {
	g := hubGraph(t)
	hybridBFS(t, g, 0)
	tr := g.Transpose()
	hybridBFS(t, g, graph.VertexID(g.NumVertices()/2))
	if g.Transpose() != tr {
		t.Fatal("second hybrid run rebuilt the transpose")
	}
	if tr.Transpose() != g {
		t.Fatal("transpose round trip is not the original graph")
	}
}

// TestDirOptAllocBound bounds a whole run's allocations: on a 2000-level
// chain a run costs only its constant setup — independent of the
// iteration count up to the amortized telemetry appends.
func TestDirOptAllocBound(t *testing.T) {
	g := chainGraph(t, 2000)
	run := func() { hybridBFS(t, g, 0) }
	run() // warm the graph-side caches (transpose is unused on a chain but cheap)
	if allocs := testing.AllocsPerRun(5, run); allocs > 64 {
		t.Fatalf("hybrid BFS run allocates %.0f times on a 2000-level chain; want setup-only (<= 64)", allocs)
	}
}

// TestAutoNeverInspectsMoreThanPush is the direction rule's guarantee: on
// every dataset stand-in, for every gather kernel, from eight seed-drawn
// sources, a DirectionAuto run inspects no more edges than the nominal
// volume forced push would — on both machines — and stays bit-identical
// to push; forced pull still runs every gather kernel, so the
// direction-differential oracle keeps its coverage. (At the parent, SSSP
// on the com-livejournal stand-in inspected 16.61 M edges against 6.72 M
// nominal: Beamer's remaining-volume estimate reads 0 once vertices
// re-activate, and SSSP's GatherDone never fires.)
//
// What the guarantee costs: one GatherSkip scan of the values per
// *candidate* iteration — an iteration Beamer's filter would have pulled —
// cut short as soon as the scanned in-degree reaches the frontier's
// out-edge volume, chunk-parallel on the staged machine, and nothing at
// all when the filter says push. Maintaining the bound incrementally in
// apply was weighed and not taken: it needs the transpose before any
// iteration is a candidate and two GatherSkip calls per applied vertex,
// which on BFS is the same number of calls as the scans it saves.
func TestAutoNeverInspectsMoreThanPush(t *testing.T) {
	for _, d := range gen.Datasets() {
		g, err := d.Generate(0.125, gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true})
		mustNoErr(t, err)
		rng := rand.New(rand.NewSource(42))
		var sources []graph.VertexID
		for len(sources) < 8 {
			if v := graph.VertexID(rng.Intn(g.NumVertices())); g.OutDegree(v) > 0 {
				sources = append(sources, v)
			}
		}
		for _, gk := range gatherKernels(t) {
			runs := sources
			if _, sourced := gk.(SourcedKernel); !sourced {
				runs = sources[:1]
			}
			for _, s := range runs {
				mk := func() Kernel {
					switch gk.Name() {
					case "bfs":
						return NewBFS(s)
					case "sssp":
						return NewSSSP(s)
					case "sswp":
						return NewSSWP(s)
					case "reach":
						return NewReachability(s)
					}
					k, err := ByName(gk.Name())
					mustNoErr(t, err)
					return k
				}
				push, err := RunSerialWith(g, mk(), Options{Direction: DirectionPush})
				mustNoErr(t, err)
				var nominal int64
				for _, e := range push.ActiveEdges {
					nominal += e
				}
				for _, m := range []Machine{Serial, Staged} {
					label := fmt.Sprintf("%s %s from %d, machine %d", d.Name, gk.Name(), s, m)
					auto, err := RunOn(context.Background(), g, mk(), m, Options{Workers: 2})
					mustNoErr(t, err)
					assertSharedFieldsEqual(t, label, auto, push)
					if auto.EdgesInspected > nominal {
						t.Errorf("%s: auto inspected %d edges over %d pulls, push inspects %d", label, auto.EdgesInspected, auto.PullIterations, nominal)
					}
				}
				pull, err := RunSerialWith(g, mk(), Options{Direction: DirectionPull})
				mustNoErr(t, err)
				assertSharedFieldsEqual(t, d.Name+" "+gk.Name()+" forced pull", pull, push)
				if pull.PullIterations != pull.Iterations {
					t.Errorf("%s %s: forced pull ran %d of %d iterations as pull", d.Name, gk.Name(), pull.PullIterations, pull.Iterations)
				}
			}
		}
	}
}

// backing returns the address of s's first slot, used or not: two slices
// share it exactly when neither was reallocated since the other was taken.
func backing[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// TestPushScratchSurvivesClaimWrap: a worker's 2^32nd claim must not make
// destinations stamped by its first look fresh.
func TestPushScratchSurvivesClaimWrap(t *testing.T) {
	s := pushScratch{seen: make([]uint32, 4)}
	first := s.claim()
	s.seen[2] = first
	s.claims = math.MaxUint32
	if stamp := s.claim(); stamp != first {
		t.Fatalf("claim after the wrap stamps %#x, want the count restarted at %#x", stamp, first)
	}
	if s.seen[2] != 0 {
		t.Fatalf("stamp set before the wrap survived it: %#x", s.seen[2])
	}
}

// TestClosedEngineIsUnreachable: once a multi-worker run has returned,
// nothing of its engine may still hang off a pool goroutine that has yet
// to be scheduled and exit — the phase closure it last ran closes over
// every array of the engine, several MiB at the benchmark's size, and a
// collection that lands in that window counts all of it as live.
func TestClosedEngineIsUnreachable(t *testing.T) {
	g := socialGraph(t)
	var mem Source = g
	for i := 0; i < 200; i++ {
		e, err := newEngine(mem, NewPageRank(0, 0.85), Options{Workers: 4}, true)
		mustNoErr(t, err)
		_, err = e.run(context.Background())
		mustNoErr(t, err)
		freed := make(chan struct{})
		// The aggregate array is the engine's alone (a Result shares
		// values) and holds no pointer back into it.
		runtime.SetFinalizer(&e.agg[0], func(*float64) { close(freed) })
		e.close()
		e = nil
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: the engine survived a collection made right after close", i)
		}
	}
}
