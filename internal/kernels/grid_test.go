package kernels

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// iterCounts is what an observer can count in one finished iteration.
type iterCounts struct {
	Partials, Remote []int64 // per chunk
	Distinct, Next   int64
}

// refGrid names a reduction tree: how an iteration's frontier is cut into
// chunks. With owner set, vertex v scatters in chunk owner[v] (an
// Options.Grid); without, the frontier is cut into equal slices (the
// Staged machine's default grid at engineChunks, the Serial machine at 1).
type refGrid struct {
	chunks int
	owner  []int32
}

func (rg refGrid) cut(frontier []graph.VertexID, c int) []graph.VertexID {
	if rg.owner == nil {
		a := len(frontier)
		return frontier[a*c/rg.chunks : a*(c+1)/rg.chunks]
	}
	var out []graph.VertexID
	for _, v := range frontier {
		if int(rg.owner[v]) == c {
			out = append(out, v)
		}
	}
	return out
}

// reference executes k the obvious way: the kernel's Emit and the declared
// operators' Combine and Reduce called as plain functions, one edge at a
// time; maps instead of stamped scratch, a filter instead of a counting
// sort, no staging lists, no pool and no line of engine code. It keeps
// only the reduction tree — a chunk aggregates its own frontier vertices
// in (frontier, edge) order, chunks fold in order 0..C-1, the residual
// folds per vertex-range chunk — because that tree is the definition
// being pinned.
func reference(g *graph.Graph, k Kernel, rg refGrid) ([]float64, []iterCounts) {
	n, tr, C := g.NumVertices(), k.Traits(), rg.chunks
	values := make([]float64, n)
	for v := range values {
		values[v] = k.InitialValue(g, graph.VertexID(v))
	}
	all := func() []graph.VertexID {
		out := make([]graph.VertexID, n)
		for v := range out {
			out[v] = graph.VertexID(v)
		}
		return out
	}
	frontier := k.InitialFrontier(g)
	if frontier == nil {
		frontier = all()
	}
	var counts []iterCounts
	for iter := 0; iter < tr.MaxIterations && len(frontier) > 0; iter++ {
		ic := iterCounts{Partials: make([]int64, C), Remote: make([]int64, C)}
		agg := map[graph.VertexID]float64{}
		for c := 0; c < C; c++ {
			part := map[graph.VertexID]float64{}
			var order []graph.VertexID
			for _, v := range rg.cut(frontier, c) {
				base, ok := k.Emit(v, values[v], g.OutDegree(v))
				if !ok {
					continue
				}
				lo, _ := g.EdgeRange(v)
				for i, dst := range g.Neighbors(v) {
					w := float32(1)
					if g.Weighted() {
						w = g.Weights()[lo+int64(i)]
					}
					u := tr.Edge.Combine(base, w)
					if old, seen := part[dst]; seen {
						part[dst] = tr.Agg.Reduce(old, u)
					} else {
						part[dst] = u
						order = append(order, dst)
					}
				}
			}
			ic.Partials[c] = int64(len(order))
			for _, dst := range order {
				if rg.owner != nil && int(rg.owner[dst]) != c {
					ic.Remote[c]++
				}
				if old, seen := agg[dst]; seen {
					agg[dst] = tr.Agg.Reduce(old, part[dst])
				} else {
					agg[dst] = part[dst]
				}
			}
		}
		ic.Distinct = int64(len(agg))
		if sk, ok := k.(StatefulKernel); ok {
			for _, v := range frontier {
				sk.OnScattered(v)
			}
		}
		var next []graph.VertexID
		var residual float64
		for c := 0; c < C; c++ {
			var chunkResidual float64
			for v := n * c / C; v < n*(c+1)/C; v++ {
				a, has := agg[graph.VertexID(v)]
				if !has {
					if !tr.AllVerticesActive {
						continue
					}
					a = k.Identity()
				}
				nv, activate := k.Apply(g, graph.VertexID(v), values[v], a, has)
				chunkResidual += math.Abs(nv - values[v])
				values[v] = nv
				if activate && !tr.AllVerticesActive {
					next = append(next, graph.VertexID(v))
				}
			}
			residual += chunkResidual
		}
		converged := tr.AllVerticesActive && tr.Epsilon > 0 && residual < tr.Epsilon
		if tr.AllVerticesActive && !converged {
			next = all()
		}
		ic.Next = int64(len(next))
		counts = append(counts, ic)
		if converged {
			break
		}
		frontier = next
	}
	return values, counts
}

// stripedGrid assigns vertices to C chunks by a fixed scramble, so a
// chunk's frontier slice is neither contiguous nor sorted by construction.
func stripedGrid(n, C int) []int32 {
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32((v*7 + v/5) % C)
	}
	return chunkOf
}

// TestGriddedStagedMatchesReference pins the seam internal/sim counts
// through. Under an ownership grid the Staged machine's values are
// bit-identical to the brute-force reference at every worker count, and
// what its observer sees per iteration — each chunk's partial count (the
// distinct (destination, chunk-of-source) pairs of a plain edge walk) and
// how many of those leave the chunk, the distinct destinations, the next
// frontier's size, and frontier
// slices that hold exactly their owner's vertices — is the reference's.
// For min/max kernels the grid is invisible: values equal the default
// grid's and the Serial machine's bit for bit.
func TestGriddedStagedMatchesReference(t *testing.T) {
	g := socialGraph(t)
	const C = 5
	chunkOf := stripedGrid(g.NumVertices(), C)
	src, err := InMemory(g)
	mustNoErr(t, err)
	for _, k := range All() {
		name := k.Name()
		t.Run(name, func(t *testing.T) {
			mk := func() Kernel { k, err := ByName(name); mustNoErr(t, err); return k }
			wantValues, wantCounts := reference(g, mk(), refGrid{C, chunkOf})
			for _, w := range []int{1, 3, 0} {
				var got []iterCounts
				observe := func(it *Iteration) {
					if it.Index != len(got) {
						t.Fatalf("workers=%d: observed iteration %d after %d others", w, it.Index, len(got))
					}
					ic := iterCounts{Partials: make([]int64, C), Remote: make([]int64, C), Distinct: it.DistinctDsts, Next: it.Next.Count()}
					for c := 0; c < C; c++ {
						ic.Partials[c], ic.Remote[c] = it.Partials(c), it.RemotePartials(c)
						for _, v := range it.Frontier(c) {
							if int(chunkOf[v]) != c {
								t.Fatalf("workers=%d: vertex %d of chunk %d lent in chunk %d's slice", w, v, chunkOf[v], c)
							}
						}
					}
					got = append(got, ic)
				}
				res, err := RunOn(context.Background(), src, mk(), Staged, Options{
					Workers: w, Direction: DirectionPush,
					Grid: &Grid{Chunks: C, ChunkOf: chunkOf, Observe: observe},
				})
				mustNoErr(t, err)
				if !reflect.DeepEqual(got, wantCounts) {
					t.Fatalf("workers=%d: observed counts differ from the reference walk:\n got %v\nwant %v", w, got, wantCounts)
				}
				if len(got) != res.Iterations {
					t.Fatalf("workers=%d: observer called %d times over %d iterations", w, len(got), res.Iterations)
				}
				assertBitIdentical(t, "gridded vs reference", res.Values, wantValues)
				if mk().Traits().Agg == AggSum {
					continue
				}
				serial, err := RunSerialWith(g, mk(), Options{Direction: DirectionPush})
				mustNoErr(t, err)
				assertBitIdentical(t, "gridded vs serial", res.Values, serial.Values)
				equal, err := Run(g, mk(), Options{Workers: w})
				mustNoErr(t, err)
				assertBitIdentical(t, "gridded vs default grid", res.Values, equal.Values)
			}
		})
	}
}

func assertBitIdentical(t testing.TB, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: value[%d] = %v, want %v", label, v, got[v], want[v])
		}
	}
}

// TestWorkerPoolNeverExceedsGrid pins the worker knob: 0 takes
// GOMAXPROCS, and the pool is never wider than the chunk grid — chunks
// are the unit of work, so a wider pool could only idle.
func TestWorkerPoolNeverExceedsGrid(t *testing.T) {
	g := socialGraph(t)
	src, err := InMemory(g)
	mustNoErr(t, err)
	grid := &Grid{Chunks: 4, ChunkOf: stripedGrid(g.NumVertices(), 4)}
	for _, tc := range []struct {
		workers  int
		grid     *Grid
		min, max int
	}{
		{1, grid, 1, 1},
		{100, grid, 4, 4},
		{0, grid, 1, 4},
		{100, nil, engineChunks, engineChunks},
	} {
		e, err := newEngine(src, NewBFS(0), Options{Workers: tc.workers, Grid: tc.grid}, true)
		mustNoErr(t, err)
		if w := len(e.scratch); w < tc.min || w > tc.max {
			t.Errorf("workers=%d grid=%v: pool of %d, want within [%d,%d]", tc.workers, tc.grid != nil, w, tc.min, tc.max)
		}
		e.close()
	}
}

// TestGriddedEngineAllocatesWhatItReads: under an ownership grid the
// engine builds no flat frontier — only the default grid cuts one — and
// each bucket is made at the size its chunk owns, so a whole run fills
// them without ever growing one.
func TestGriddedEngineAllocatesWhatItReads(t *testing.T) {
	g := socialGraph(t)
	n := g.NumVertices()
	src, err := InMemory(g)
	mustNoErr(t, err)
	const C = 5
	chunkOf := stripedGrid(n, C)
	owned := make([]int, C)
	for _, c := range chunkOf {
		owned[c]++
	}
	e, err := newEngine(src, NewConnectedComponents(), Options{Workers: 1, Grid: &Grid{Chunks: C, ChunkOf: chunkOf}}, true)
	mustNoErr(t, err)
	defer e.close()
	if e.active != nil {
		t.Errorf("a gridded engine made a %d-vertex flat frontier it never cuts", cap(e.active))
	}
	var first []*graph.VertexID
	for c, bucket := range e.buckets {
		if cap(bucket) != owned[c] {
			t.Fatalf("bucket %d holds %d vertices, chunk owns %d", c, cap(bucket), owned[c])
		}
		first = append(first, backing(bucket))
	}
	_, err = e.run(context.Background()) // CC's first frontier is every vertex: each bucket fills
	mustNoErr(t, err)
	for c, bucket := range e.buckets {
		if backing(bucket) != first[c] {
			t.Fatalf("bucket %d was reallocated during the run", c)
		}
	}
}

// TestGridIsValidated: a grid that does not cover the graph, or names a
// chunk outside its width, is an error before any indexing.
func TestGridIsValidated(t *testing.T) {
	g := socialGraph(t)
	n := g.NumVertices()
	outOfRange := stripedGrid(n, 4)
	outOfRange[n/2] = 4
	for name, grid := range map[string]*Grid{
		"short":        {Chunks: 4, ChunkOf: stripedGrid(n-1, 4)},
		"no chunks":    {Chunks: 0, ChunkOf: make([]int32, n)},
		"out of range": {Chunks: 4, ChunkOf: outOfRange},
	} {
		if _, err := Run(g, NewBFS(0), Options{Grid: grid}); err == nil {
			t.Errorf("%s: grid accepted", name)
		}
	}
}
