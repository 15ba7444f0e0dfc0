package kernels

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
)

// specials are the float64 values on which an inlined comparison and the
// library's min/max part ways: NaNs, both zeros, both infinities, and
// ordinary values on either side of them.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7FF8000000000123), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 1, -1, 1.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// TestInlinedOpsMatchDefinitions holds the engine's inlined reductions to
// AggOp.Reduce and EdgeOp.Combine bit for bit on every pair of specials,
// in both argument orders.
func TestInlinedOpsMatchDefinitions(t *testing.T) {
	for _, a := range specials {
		for _, b := range specials {
			if got, want := reduceMin(a, b), AggMin.Reduce(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("reduceMin(%v, %v) = %v (%#x), Reduce gives %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := reduceMax(a, b), AggMax.Reduce(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("reduceMax(%v, %v) = %v (%#x), Reduce gives %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			w := float32(b)
			if got, want := reduceMin(a, float64(w)), EdgeMinWeight.Combine(a, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("min-weight of (%v, %v) = %v, Combine gives %v", a, w, got, want)
			}
		}
	}
	// The staged push reduces every contribution into an accumulator that
	// rests at the operator's identity. That must equal the definition —
	// a partial is its first contribution, later ones folded in with
	// Reduce — on the NaNs too, where "identity ∘ u" is not u.
	contributions := append([]float64{
		math.Float64frombits(0x7FF0000000000123), // signalling
		math.Float64frombits(0x7FF8000000000000), // what a float32 NaN widens to
	}, specials...)
	// The Serial machine folds every contribution into whatever its slot
	// holds and keeps u's bits by mask on a first touch: the same
	// definition, on the same contributions.
	for _, op := range []AggOp{AggSum, AggMin, AggMax} {
		for _, u := range contributions {
			for _, v := range contributions {
				for _, m := range []struct {
					name     string
					partials func(*testing.T, AggOp, float64, float64) (float64, float64)
				}{{"staged", stagedPartials}, {"serial", serialPartials}} {
					lone, pair := m.partials(t, op, u, v)
					if want := u; math.Float64bits(lone) != math.Float64bits(want) {
						t.Errorf("%s %v: a partial of the one contribution %#x is %#x", m.name, op, math.Float64bits(want), math.Float64bits(lone))
					}
					if want := op.Reduce(u, v); math.Float64bits(pair) != math.Float64bits(want) {
						t.Errorf("%s %v: a partial of (%#x, %#x) is %#x, Reduce gives %#x",
							m.name, op, math.Float64bits(u), math.Float64bits(v), math.Float64bits(pair), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// relay is the least kernel that puts chosen bits on the engine's reduce
// datapath: vertex v emits Values[v] as it is, along unweighted edges.
type relay struct {
	PageRank // the methods this test never reaches
	op       AggOp
	values   []float64
}

func (r *relay) Traits() Traits {
	return Traits{MaxIterations: 1, Edge: EdgeCopy, Agg: r.op}
}
func (r *relay) InitialValue(_ *graph.Graph, v graph.VertexID) float64 { return r.values[v] }
func (r *relay) InitialFrontier(*graph.Graph) []graph.VertexID         { return []graph.VertexID{0, 1} }
func (r *relay) Emit(_ graph.VertexID, value float64, _ int64) (float64, bool) {
	return value, true
}

// stagedPartials pushes one chunk of the staged machine in which vertex 0
// (emitting u) reaches vertices 2 and 3 and vertex 1 (emitting v) reaches
// 3, and returns the partials the chunk staged for 2 and for 3.
func stagedPartials(t *testing.T, op AggOp, u, v float64) (lone, pair float64) {
	t.Helper()
	grid := &Grid{Chunks: 1, ChunkOf: make([]int32, 4)}
	e, err := newEngine(partialsSource(t), &relay{op: op, values: []float64{u, v, 0, 0}}, Options{Workers: 1, Grid: grid}, true)
	mustNoErr(t, err)
	defer e.close()
	e.prepare(0)
	e.traverse()
	mustNoErr(t, e.err)
	staged := e.chunkUpd[0]
	if len(staged) != 2 || staged[0].dst != 2 || staged[1].dst != 3 {
		t.Fatalf("chunk staged %v, want one partial for 2 then one for 3", staged)
	}
	// The merge's first touch stores, so the aggregates are the partials.
	if math.Float64bits(e.agg[2]) != math.Float64bits(staged[0].val) || math.Float64bits(e.agg[3]) != math.Float64bits(staged[1].val) {
		t.Fatalf("merged aggregates %#x, %#x differ from the only partials %#x, %#x",
			math.Float64bits(e.agg[2]), math.Float64bits(e.agg[3]), math.Float64bits(staged[0].val), math.Float64bits(staged[1].val))
	}
	return staged[0].val, staged[1].val
}

// serialPartials pushes the same frontier through the Serial machine,
// which stages nothing: the aggregates of 2 and 3 are the partials. Both
// slots start out holding a stale value, as they do after any iteration.
func serialPartials(t *testing.T, op AggOp, u, v float64) (lone, pair float64) {
	t.Helper()
	e, err := newEngine(partialsSource(t), &relay{op: op, values: []float64{u, v, 0, 0}}, Options{Workers: 1, Direction: DirectionPush}, false)
	mustNoErr(t, err)
	defer e.close()
	e.prepare(0)
	e.agg[2], e.agg[3] = -7, -7
	e.traverse()
	mustNoErr(t, e.err)
	if e.pull || !e.has[2] || !e.has[3] {
		t.Fatalf("serial push left pull=%v has=%v, want a push reaching 2 and 3", e.pull, e.has)
	}
	return e.agg[2], e.agg[3]
}

// partialsSource is the graph both partials helpers push: 0 reaches 2
// and 3, 1 reaches 3.
func partialsSource(t *testing.T) Source {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	g, err := b.Build()
	mustNoErr(t, err)
	return g
}

// awkwardGraph is small enough to read and holds every shape the fused
// loops could get wrong: weights -0, +0 and +Inf on the source's own
// edges and again where several paths converge on one destination (ties
// between signed zeros, a min against +Inf), a cycle, a self-loop, a hub
// whose fan-out reconverges, frontier vertices with no out-edges, an
// isolated vertex, a component the source cannot reach that nonetheless
// points into the reachable one, and a sprinkle of ordinary edges so the
// staged machine's chunks are not all trivial.
func awkwardGraph(t testing.TB, weighted bool) *graph.Graph {
	t.Helper()
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	const n = 48
	b := graph.NewBuilder(n)
	for _, e := range []graph.Edge{
		{Src: 0, Dst: 1, Weight: 0}, {Src: 0, Dst: 2, Weight: negZero}, {Src: 0, Dst: 3, Weight: inf},
		{Src: 1, Dst: 4, Weight: negZero}, {Src: 2, Dst: 4, Weight: 0}, {Src: 3, Dst: 4, Weight: inf},
		{Src: 4, Dst: 5, Weight: 1.5}, {Src: 5, Dst: 6, Weight: 2.25}, {Src: 6, Dst: 4, Weight: 0.5}, {Src: 6, Dst: 6, Weight: 3},
		{Src: 15, Dst: 16, Weight: 1}, // 16 is a sink; 17 stays isolated
		{Src: 18, Dst: 19, Weight: 1}, {Src: 19, Dst: 20, Weight: negZero}, {Src: 20, Dst: 18, Weight: 2}, {Src: 20, Dst: 4, Weight: 0.25},
		{Src: 21, Dst: 1, Weight: 3}, // out-edges only, unreachable
	} {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	for i := 0; i < 8; i++ { // the hub 5 fans out to 7..14, which reconverge on 15
		mid := graph.VertexID(7 + i)
		b.AddEdge(5, mid, []float32{0, negZero, inf, 1, 0.125, 7, 1, 2}[i])
		b.AddEdge(mid, 15, []float32{inf, 0, negZero, 4, 0.5, 0, 1, 1}[i])
	}
	x := uint32(12345)
	for i := 0; i < 120; i++ {
		x = x*1664525 + 1013904223
		src, dst := graph.VertexID(22+x>>8%26), graph.VertexID(x>>16%n)
		b.AddEdge(src, dst, float32(x>>24)/16)
	}
	b.AddEdge(4, 22, 1) // the sprinkle is reachable
	var g *graph.Graph
	var err error
	if weighted {
		g, err = b.BuildWeighted()
	} else {
		g, err = b.Build()
	}
	mustNoErr(t, err)
	return g
}

// withSpecialWeights returns g with -0, +Inf and +0 written over a fixed
// stride of its weights, or with the weights dropped.
func withSpecialWeights(t testing.TB, g *graph.Graph, weighted bool) *graph.Graph {
	t.Helper()
	var weights []float32
	if weighted {
		weights = append(weights, g.Weights()...)
		for i := range weights {
			switch {
			case i%7 == 0:
				weights[i] = float32(math.Copysign(0, -1))
			case i%11 == 0:
				weights[i] = float32(math.Inf(1))
			case i%13 == 0:
				weights[i] = 0
			}
		}
	}
	out, err := graph.NewCSR(g.Offsets(), g.Edges(), weights)
	mustNoErr(t, err)
	return out
}

// fusedAgainstReference runs the kernel mk makes over g on every machine,
// grid and direction it supports and requires each Values vector to equal,
// bit for bit, the reference walk with the same reduction tree. It reports
// whether the kernel ran at all: a kernel whose edge operator reads
// weights is refused on an unweighted graph, and only then; a kernel on an
// (edge, reduce) pair without a loop is refused with ErrEdgePath on every
// machine, grid and worker count, and only then.
func fusedAgainstReference(t testing.TB, g *graph.Graph, name string, mk func() Kernel) bool {
	t.Helper()
	var src Source = g
	const C = 5
	owner := stripedGrid(g.NumVertices(), C)
	// One reference walk per reduction tree; every direction and worker
	// count under that tree must reproduce it.
	type tree struct {
		label string
		m     Machine
		grid  *Grid
		rg    refGrid
	}
	trees := []tree{
		{"serial", Serial, nil, refGrid{chunks: 1}},
		{"staged", Staged, nil, refGrid{chunks: engineChunks}},
		{"gridded", Staged, &Grid{Chunks: C, ChunkOf: owner}, refGrid{C, owner}},
	}
	workers := []int{1, 3}
	traits := mk().Traits()
	_, looped := pathOf(traits.Edge, traits.Agg)
	if err := CheckGraph(g, mk()); err != nil {
		switch {
		case errors.Is(err, ErrEdgePath) && !looped:
			for _, tr := range trees {
				for _, w := range workers {
					if _, err := RunOn(context.Background(), src, mk(), tr.m, Options{Workers: w, Grid: tr.grid}); !errors.Is(err, ErrEdgePath) {
						t.Fatalf("%s %s at %d workers: err = %v, want ErrEdgePath", name, tr.label, w, err)
					}
				}
			}
		case !looped:
			t.Fatalf("%s has no edge loop, refused with %v", name, err)
		case g.Weighted() && g.NonNegativeWeights() || traits.Edge == EdgeCopy:
			t.Fatalf("%s refused: %v", name, err)
		}
		return false
	}
	if !looped {
		t.Fatalf("%s has no edge loop, yet CheckGraph accepts it", name)
	}
	_, gathers := mk().(GatherKernel)
	exact := traits.Agg != AggSum

	directions := []Direction{DirectionPush}
	if gathers && exact {
		// Pull and auto visit the same contributions in another order; an
		// exact reduction makes that order invisible, so the push tree's
		// values are theirs too.
		directions = append(directions, DirectionPull, DirectionAuto)
	}
	for _, tr := range trees {
		want, counts, probes := reference(g, mk(), tr.rg)
		for _, d := range directions {
			for _, w := range workers {
				if tr.m == Serial && w > 1 {
					continue
				}
				res, err := RunOn(context.Background(), src, mk(), tr.m, Options{Workers: w, Direction: d, Grid: tr.grid})
				mustNoErr(t, err)
				label := name + " " + tr.label + " " + d.String()
				assertBitIdentical(t, label, res.Values, want)
				if res.Iterations != len(counts) {
					t.Fatalf("%s: %d iterations, reference walked %d", label, res.Iterations, len(counts))
				}
				checkInspected(t, label, d, res, probes)
			}
		}
	}
	return true
}

// checkInspected holds a run's edge telemetry to what its direction must
// probe: a push iteration inspects every out-edge of its frontier, so
// EdgesInspected is the sum of ActiveEdges; a forced pull pulls every
// iteration and inspects exactly the reference's probes, which end each
// in-edge scan at the first aggregate GatherDone accepts. Auto mixes the
// two and is held only by its values.
func checkInspected(t testing.TB, label string, d Direction, res *Result, probes []int64) {
	t.Helper()
	var want int64
	switch d {
	case DirectionPush:
		for _, a := range res.ActiveEdges {
			want += a
		}
	case DirectionPull:
		if res.PullIterations != res.Iterations {
			t.Fatalf("%s: %d of %d iterations pulled", label, res.PullIterations, res.Iterations)
		}
		for _, p := range probes {
			want += p
		}
	default:
		return
	}
	if res.EdgesInspected != want {
		t.Fatalf("%s: %d edges inspected, want %d", label, res.EdgesInspected, want)
	}
}

// pairKernel is the least kernel on any (EdgeOp, AggOp) pair: every vertex
// starts active holding one of the specials, and each emits its value as
// it is but every fifth, which emits nothing; a destination takes its
// aggregate and stays active while the bits move, for three iterations.
type pairKernel struct {
	edge EdgeOp
	agg  AggOp
}

func (p pairKernel) Name() string                                  { return "pair " + p.edge.String() + "/" + p.agg.String() }
func (p pairKernel) Traits() Traits                                { return Traits{MaxIterations: 3, Edge: p.edge, Agg: p.agg} }
func (p pairKernel) InitialFrontier(*graph.Graph) []graph.VertexID { return nil }
func (p pairKernel) Identity() float64                             { return restIdentity(p.agg) }
func (p pairKernel) InitialValue(_ *graph.Graph, v graph.VertexID) float64 {
	return specials[int(v)%len(specials)]
}
func (p pairKernel) Emit(v graph.VertexID, value float64, _ int64) (float64, bool) {
	return value, v%5 != 4
}
func (p pairKernel) Apply(_ *graph.Graph, _ graph.VertexID, old, agg float64, _ bool) (float64, bool) {
	return agg, math.Float64bits(agg) != math.Float64bits(old)
}

// allPairs is a pairKernel on each of the nine (EdgeOp, AggOp) pairs.
func allPairs() []pairKernel {
	var pairs []pairKernel
	for _, edge := range []EdgeOp{EdgeCopy, EdgeAddWeight, EdgeMinWeight} {
		for _, agg := range []AggOp{AggSum, AggMin, AggMax} {
			pairs = append(pairs, pairKernel{edge, agg})
		}
	}
	return pairs
}

// fusedKernels names the kernels the fused tests drive: the registry's,
// then the nine pairs.
func fusedKernels() (names []string, makers []func() Kernel) {
	for _, e := range registry {
		names = append(names, e.name)
		makers = append(makers, func() Kernel { return e.make(DefaultPageRankIterations) })
	}
	for _, p := range allPairs() {
		names = append(names, p.Name())
		makers = append(makers, func() Kernel { return p })
	}
	return names, makers
}

// TestFusedLoopsMatchReference proves the edge path rather than assuming
// it: every registry kernel and a kernel on each of the nine (edge,
// reduce) pairs, weighted and unweighted, Serial and Staged at one and
// three workers under both grids, push and — where the kernel gathers —
// pull and auto, against the reference that calls Emit, Combine and
// Reduce as plain functions; on a hand-built graph of awkward shapes and
// on the community fixture with special weights written over it. A pair
// without a loop must be refused, with ErrEdgePath, everywhere.
func TestFusedLoopsMatchReference(t *testing.T) {
	names, makers := fusedKernels()
	for _, weighted := range []bool{true, false} {
		for label, g := range map[string]*graph.Graph{
			"awkward": awkwardGraph(t, weighted),
			"social":  withSpecialWeights(t, socialGraph(t), weighted),
		} {
			ran := 0
			for i, name := range names[:len(Names())] {
				if fusedAgainstReference(t, g, name, makers[i]) {
					ran++
				}
			}
			if want := len(Names()); weighted && ran != want {
				t.Errorf("%s weighted: %d of %d kernels ran", label, ran, want)
			} else if !weighted && ran != want-2 {
				t.Errorf("%s unweighted: %d kernels ran, want all but sssp and sswp", label, ran)
			}
			for i, p := range allPairs() {
				_, looped := pathOf(p.edge, p.agg)
				want := looped && (weighted || p.edge == EdgeCopy)
				if got := fusedAgainstReference(t, g, p.Name(), makers[len(Names())+i]); got != want {
					t.Errorf("%s weighted=%v: %s ran=%v, want %v", label, weighted, p.Name(), got, want)
				}
			}
		}
	}
}

// TestEveryRegistryPairHasALoop: a kernel the registry offers declares an
// (edge, reduce) pair the push loops have a leaf loop for, and CheckGraph
// lets it run on a weighted graph.
func TestEveryRegistryPairHasALoop(t *testing.T) {
	g := awkwardGraph(t, true)
	for _, k := range All() {
		tr := k.Traits()
		if _, ok := pathOf(tr.Edge, tr.Agg); !ok {
			t.Errorf("%s declares %v/%v, which has no edge loop", k.Name(), tr.Edge, tr.Agg)
		}
		if err := CheckGraph(g, k); err != nil {
			t.Errorf("%s refused on a weighted graph: %v", k.Name(), err)
		}
	}
}

// FuzzFusedTraversal builds a small graph from the input — up to 16
// vertices, edges and raw float32 weight bits straight from the bytes, so
// NaN, -0, infinities, denormals and negative weights all occur — picks a
// registry kernel or one of the nine pair kernels, and holds the fused
// engine to the reference on every machine, grid and direction (or, for
// a pair without a loop, to ErrEdgePath on each).
func FuzzFusedTraversal(f *testing.F) {
	edgeBits := func(src, dst byte, w uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{src, dst}, w)
	}
	edge := func(src, dst byte, w float32) []byte { return edgeBits(src, dst, math.Float32bits(w)) }
	seed := func(n, kernel, weighted byte, edges ...[]byte) {
		data := []byte{n, kernel, weighted}
		for _, e := range edges {
			data = append(data, e...)
		}
		f.Add(data)
	}
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	names, makers := fusedKernels()
	for kernel := byte(0); kernel < byte(len(names)); kernel++ {
		seed(6, kernel, 1, edge(0, 1, negZero), edge(0, 2, 0), edge(1, 3, inf), edge(2, 3, negZero), edge(3, 0, 1.5), edge(4, 4, 2))
	}
	seed(3, 7, 1, edge(0, 1, float32(math.NaN())), edge(0, 2, 1))
	seed(3, 7, 1, edge(0, 1, -1))
	seed(9, 3, 0, edge(0, 1, 1), edge(1, 2, 1), edge(2, 0, 1))
	// A quiet and a signalling NaN weight on the only in-edge of vertex 1:
	// were one to reach the reduce datapath, it would be a partial's lone
	// contribution, where reducing into the identity is not a store.
	for _, nan := range []uint32{0x7FC00123, 0x7F800123} {
		for _, kernel := range []byte{3, 7, 8} { // pagerank, sssp, sswp
			seed(3, kernel, 1, edgeBits(0, 1, nan), edge(0, 2, 1), edge(2, 0, 1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%15
		i := int(data[1]) % len(names)
		weighted := data[2]&1 == 1
		b := graph.NewBuilder(n)
		for rest, added := data[3:], 0; len(rest) >= 6 && added < 96; rest, added = rest[6:], added+1 {
			w := math.Float32frombits(binary.LittleEndian.Uint32(rest[2:]))
			b.AddEdge(graph.VertexID(int(rest[0])%n), graph.VertexID(int(rest[1])%n), w)
		}
		var g *graph.Graph
		var err error
		if weighted {
			g, err = b.BuildWeighted()
		} else {
			g, err = b.Build()
		}
		mustNoErr(t, err)
		fusedAgainstReference(t, g, names[i], makers[i])
	})
}
