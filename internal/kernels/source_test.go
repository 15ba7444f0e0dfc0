package kernels

import "repro/internal/graph"

// A resident graph is its own source and serves its own in-edges.
var (
	_ Source      = (*graph.Graph)(nil)
	_ InAdjacency = (*graph.Graph)(nil)
)
