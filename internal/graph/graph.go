// Package graph provides an immutable compressed-sparse-row (CSR) graph
// representation and the construction, inspection, and transformation
// primitives the rest of the framework builds on.
//
// The representation follows the model in the paper: a graph is two flat
// structures, a vertex list (offsets plus per-vertex properties held by the
// analytics runtime) and an edge list that can be orders of magnitude
// larger. Edge destinations are 32-bit vertex ids; edge weights are
// optional 32-bit floats.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// VertexID identifies a vertex. Graphs are limited to 2^32-1 vertices,
// which comfortably covers the scaled synthetic datasets this framework
// targets while halving edge-list storage versus 64-bit ids.
type VertexID = uint32

// Edge is a single directed edge, used by builders and I/O.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an immutable directed graph in CSR form.
//
// offsets has length NumVertices()+1; the out-neighbors of vertex v are
// edges[offsets[v]:offsets[v+1]], sorted by destination id. weights is
// either nil (unweighted) or parallel to edges.
type Graph struct {
	offsets []int64
	edges   []VertexID
	weights []float32

	// vertexView marks an offsets-only graph built by NewVertexView: the
	// edge array is deliberately absent and Neighbors panics.
	vertexView bool

	// transposeOnce guards the lazily built transpose below. The graph is
	// immutable, so its transpose is a pure function of it: build it once
	// on first request and share it with every subsequent caller — pull
	// traversals, direction-optimized BFS, and concurrent serve jobs all
	// hit the same cached instance.
	transposeOnce sync.Once
	transpose     *Graph
}

// ErrTooManyVertices is returned when a builder is asked to construct a
// graph whose vertex count exceeds the VertexID range.
var ErrTooManyVertices = errors.New("graph: vertex count exceeds uint32 range")

// NewCSR wraps pre-built CSR arrays in a Graph. It validates the structural
// invariants and returns an error describing the first violation.
//
// The caller must not modify the slices after the call.
func NewCSR(offsets []int64, edges []VertexID, weights []float32) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, errors.New("graph: offsets must have at least one entry")
	}
	n := len(offsets) - 1
	if int64(n) > math.MaxUint32 {
		return nil, ErrTooManyVertices
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d: %d > %d", v, offsets[v], offsets[v+1])
		}
	}
	if offsets[n] != int64(len(edges)) {
		return nil, fmt.Errorf("graph: offsets[n] = %d, want len(edges) = %d", offsets[n], len(edges))
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("graph: len(weights) = %d, want len(edges) = %d", len(weights), len(edges))
	}
	for i, d := range edges {
		if int(d) >= n {
			return nil, fmt.Errorf("graph: edge %d targets vertex %d, out of range [0,%d)", i, d, n)
		}
	}
	return &Graph{offsets: offsets, edges: edges, weights: weights}, nil
}

// NewVertexView wraps a CSR offsets array in a Graph that carries the
// vertex list only: NumVertices, NumEdges, OutDegree, and EdgeRange work,
// but the edge array itself is absent — Neighbors and ForEachEdge panic.
//
// An out-of-core adjacency source uses this view as its vertex side:
// kernel callbacks (InitialValue/Apply and friends) consult only that,
// while adjacency lists stream through a segment store instead of living
// in one flat slice. A view is not a graph to traverse — kernels.InMemory
// refuses one with an error, and Neighbors panics.
func NewVertexView(offsets []int64) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, errors.New("graph: offsets must have at least one entry")
	}
	n := len(offsets) - 1
	if int64(n) > math.MaxUint32 {
		return nil, ErrTooManyVertices
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d: %d > %d", v, offsets[v], offsets[v+1])
		}
	}
	return &Graph{offsets: offsets, vertexView: true}, nil
}

// VertexView reports whether the graph is an offsets-only view created by
// NewVertexView (no edge array resident).
func (g *Graph) VertexView() bool { return g.vertexView }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.offsets[g.NumVertices()] }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// NonNegativeWeights reports whether every edge weight is >= 0, by an
// O(E) scan (vacuously true when unweighted). A NaN weight is not: it is
// unordered, and the path kernels this gates rely on order.
func (g *Graph) NonNegativeWeights() bool {
	for _, w := range g.weights {
		if !(w >= 0) {
			return false
		}
	}
	return true
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int64 {
	return g.offsets[v+1] - g.offsets[v]
}

// Neighbors returns the sorted out-neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	if g.vertexView {
		//lint:ignore panicpath programmer-error guard: a vertex-only view has no adjacency by construction and the accessor has no error path
		panic("graph: Neighbors on a vertex-only view (adjacency lives in the store)")
	}
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v), or nil for
// an unweighted graph. The returned slice aliases internal storage.
func (g *Graph) NeighborWeights(v VertexID) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeight returns the weight of the i-th edge in CSR order, or 1 for an
// unweighted graph.
func (g *Graph) EdgeWeight(i int64) float32 {
	if g.weights == nil {
		return 1
	}
	return g.weights[i]
}

// EdgeRange returns the half-open CSR index range [lo, hi) of v's out-edges.
func (g *Graph) EdgeRange(v VertexID) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// Offsets returns the CSR offsets array. Read-only.
func (g *Graph) Offsets() []int64 { return g.offsets }

// Edges returns the CSR edge destination array. Read-only.
func (g *Graph) Edges() []VertexID { return g.edges }

// Weights returns the CSR weight array, nil if unweighted. Read-only.
func (g *Graph) Weights() []float32 { return g.weights }

// HasEdge reports whether the directed edge (u,v) exists, in O(log deg(u)).
func (g *Graph) HasEdge(u, v VertexID) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// ForEachEdge invokes fn for every directed edge. Iteration is in CSR order
// (by source, then destination). fn returning false stops early.
func (g *Graph) ForEachEdge(fn func(src, dst VertexID, w float32) bool) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			w := float32(1)
			if g.weights != nil {
				w = g.weights[i]
			}
			if !fn(VertexID(v), g.edges[i], w) {
				return
			}
		}
	}
}

// Transpose returns the graph with all edge directions reversed. Weights
// are carried along. The result satisfies the same CSR invariants.
//
// The transpose is computed on the first call and cached: repeated calls
// (every pull iteration of the kernel engine, every served direction-
// optimized job) return the same *Graph. The cache links back, so
// g.Transpose().Transpose() == g without a second O(E) pass. Safe for
// concurrent use.
func (g *Graph) Transpose() *Graph {
	g.transposeOnce.Do(func() {
		tr := g.computeTranspose()
		tr.transpose = g
		// Mark the back-link as already built so a Transpose() call on the
		// transpose takes the cached path instead of recomputing.
		tr.transposeOnce.Do(func() {})
		g.transpose = tr
	})
	return g.transpose
}

// computeTranspose does the O(E) counting-sort construction.
func (g *Graph) computeTranspose() *Graph {
	n := g.NumVertices()
	m := g.NumEdges()
	deg := make([]int64, n+1)
	for _, d := range g.edges {
		deg[d+1]++
	}
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v+1]
	}
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	edges := make([]VertexID, m)
	var weights []float32
	if g.weights != nil {
		weights = make([]float32, m)
	}
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			d := g.edges[i]
			p := cursor[d]
			cursor[d]++
			edges[p] = VertexID(v)
			if weights != nil {
				weights[p] = g.weights[i]
			}
		}
	}
	// CSR order by source guarantees each destination bucket is filled in
	// ascending source order, so neighbor lists are already sorted.
	return &Graph{offsets: off, edges: edges, weights: weights}
}

// InDegrees returns the in-degree of every vertex in one pass.
func (g *Graph) InDegrees() []int64 {
	in := make([]int64, g.NumVertices())
	for _, d := range g.edges {
		in[d]++
	}
	return in
}

// MaxOutDegree returns the largest out-degree and a vertex attaining it.
func (g *Graph) MaxOutDegree() (VertexID, int64) {
	var best VertexID
	var bestDeg int64 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > bestDeg {
			best, bestDeg = VertexID(v), d
		}
	}
	return best, bestDeg
}

// Validate re-checks all CSR invariants, including neighbor-list sortedness.
// It is used by property tests and after deserialization.
func (g *Graph) Validate() error {
	if _, err := NewCSR(g.offsets, g.edges, g.weights); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(VertexID(v))
		for i := 1; i < len(nb); i++ {
			if nb[i-1] > nb[i] {
				return fmt.Errorf("graph: neighbors of %d not sorted at position %d", v, i)
			}
		}
	}
	return nil
}

// InducedSubgraph returns the subgraph induced by keep (a vertex set given
// as a boolean mask of length NumVertices) together with the mapping from
// new ids to original ids. Edges between kept vertices are preserved.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []VertexID, error) {
	if len(keep) != g.NumVertices() {
		return nil, nil, fmt.Errorf("graph: keep mask length %d, want %d", len(keep), g.NumVertices())
	}
	remap := make([]int64, g.NumVertices())
	var orig []VertexID
	for v, k := range keep {
		if k {
			remap[v] = int64(len(orig))
			orig = append(orig, VertexID(v))
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(len(orig))
	for _, ov := range orig {
		lo, hi := g.offsets[ov], g.offsets[ov+1]
		for i := lo; i < hi; i++ {
			d := g.edges[i]
			if remap[d] < 0 {
				continue
			}
			w := float32(1)
			if g.weights != nil {
				w = g.weights[i]
			}
			b.AddEdge(VertexID(remap[ov]), VertexID(remap[d]), w)
		}
	}
	var sg *Graph
	var err error
	if g.weights != nil {
		sg, err = b.BuildWeighted()
	} else {
		sg, err = b.Build()
	}
	if err != nil {
		return nil, nil, err
	}
	return sg, orig, nil
}

// Symmetrize returns the undirected view of the graph: for every edge
// (u,v) both (u,v) and (v,u) exist in the result, deduplicated. Weights are
// carried along; where (u,v) and (v,u) carry different weights, the one
// kept is the Builder's choice, the duplicate its sort puts first.
// Weakly-connected component kernels run on this view.
func (g *Graph) Symmetrize() (*Graph, error) {
	b := NewBuilder(g.NumVertices())
	g.ForEachEdge(func(s, d VertexID, w float32) bool {
		b.AddEdge(s, d, w)
		b.AddEdge(d, s, w)
		return true
	})
	if g.weights != nil {
		return b.BuildWeighted()
	}
	return b.Build()
}

// String summarizes the graph for logging.
func (g *Graph) String() string {
	kind := "unweighted"
	if g.Weighted() {
		kind = "weighted"
	}
	return fmt.Sprintf("Graph{V=%d, E=%d, %s}", g.NumVertices(), g.NumEdges(), kind)
}
