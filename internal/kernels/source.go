package kernels

import "repro/internal/graph"

// Source is where every engine reads a graph from. The vertex side is
// always a resident *graph.Graph; the edge list is lent in pinned
// segments, so it may live anywhere — a *graph.Graph is a Source itself,
// an out-of-core container (store.Store) another. The engine branches
// only on what a source reports, never on which source it is.
type Source interface {
	// Vertices returns the vertex side: offsets and degrees, and the
	// graph handed to kernel callbacks (InitialValue, InitialFrontier,
	// Apply). Its edge array may be absent (graph.NewVertexView): a view
	// that is its own source lends no segment (graph.ErrVertexView).
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

// listPinner is implemented by sources whose tier, once full, can serve a
// pin by decoding only the lists a push loop will read (store.Store). The
// loop passes rest, the frontier's vertices after v, when they ascend: the
// handle then serves v's list and theirs as far as the segment reaches,
// which are all the lists the loop reads before it leaves the segment
// and pins again. With rest nil it serves every list of the segment.
// weights says whether the kernel's EdgeOp reads a weight: without one a
// tier holds, and is charged for, the edge ids alone. The loop holds no
// other pin while it asks. Results do not change.
type listPinner interface {
	PinLists(v graph.VertexID, rest []graph.VertexID, weights bool) (graph.Segment, error)
}

// InAdjacency is implemented by sources that can also serve in-edges.
// Only such a source ever runs a pull iteration.
type InAdjacency interface {
	// Transpose returns the reversed graph, fully resident. It may be
	// built on first call; the engine asks only once it has chosen pull.
	Transpose() *graph.Graph
}
