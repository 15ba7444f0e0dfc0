package kernels

import (
	"errors"

	"repro/internal/graph"
)

// Source is where the engine reads a graph from. The vertex side is
// always a resident *graph.Graph; the edge list is lent in pinned
// segments, so it may live anywhere — one flat in-memory CSR or an
// out-of-core container's memory tier. The engine branches only on what
// a source reports, never on which source it is.
type Source interface {
	// Vertices returns the vertex side: offsets and degrees, and the
	// graph handed to kernel callbacks (InitialValue, InitialFrontier,
	// Apply). Its edge array may be absent (graph.NewVertexView).
	Vertices() *graph.Graph
	NumVertices() int
	Weighted() bool
	// NonNegativeWeights reports whether every edge weight is >= 0
	// (vacuously true when unweighted).
	NonNegativeWeights() bool
	// Pin returns the segment covering v, pinned until its Release. The
	// push loops hold one segment per traversal (or per chunk) and call
	// Pin only when the frontier leaves it. Safe for concurrent use.
	Pin(v graph.VertexID) (graph.Segment, error)
}

// InAdjacency is implemented by sources that can also serve in-edges.
// Only such a source ever runs a pull iteration.
type InAdjacency interface {
	// Transpose returns the reversed graph, fully resident. It may be
	// built on first call; the engine asks only once it has chosen pull.
	Transpose() *graph.Graph
}

// memSource serves a fully resident CSR: one segment, never released.
type memSource struct{ g *graph.Graph }

// InMemory wraps a fully resident graph as a Source. An offsets-only
// vertex view has no adjacency to lend and is rejected here, before a
// traversal can index its absent edge array.
func InMemory(g *graph.Graph) (Source, error) {
	if g.VertexView() {
		return nil, errors.New("kernels: a vertex-only view has no adjacency; run it from the store that owns the edges")
	}
	return memSource{g}, nil
}

func (m memSource) Vertices() *graph.Graph   { return m.g }
func (m memSource) NumVertices() int         { return m.g.NumVertices() }
func (m memSource) Weighted() bool           { return m.g.Weighted() }
func (m memSource) NonNegativeWeights() bool { return m.g.NonNegativeWeights() }
func (m memSource) Transpose() *graph.Graph  { return m.g.Transpose() }

func (m memSource) Pin(graph.VertexID) (graph.Segment, error) {
	g := m.g
	return graph.Segment{End: graph.VertexID(g.NumVertices()), Edges: g.Edges(), Weights: g.Weights()}, nil
}
