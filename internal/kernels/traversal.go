package kernels

import (
	"math"

	"repro/internal/graph"
)

// ConnectedComponents computes weakly-connected component labels by
// min-label propagation: every vertex starts with its own id as label and
// repeatedly adopts the minimum label among its in-neighbors. On digraphs
// the engine is expected to run the kernel over the symmetrized edge view
// or accept directed label flow; the paper's CC (Figure 7a) follows the
// same frontier-shrinking pattern either way.
type ConnectedComponents struct{}

// NewConnectedComponents returns the CC kernel.
func NewConnectedComponents() *ConnectedComponents { return &ConnectedComponents{} }

// Name implements Kernel.
func (*ConnectedComponents) Name() string { return "cc" }

// Traits implements Kernel.
func (*ConnectedComponents) Traits() Traits {
	return Traits{
		MaxIterations: 10_000,
		Agg:           AggMin,
		FLOPsPerEdge:  0.5, // comparison only
		FLOPsPerApply: 0.5,
	}
}

// InitialValue implements Kernel: own id.
func (*ConnectedComponents) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	return float64(v)
}

// InitialFrontier implements Kernel: all vertices propagate initially.
func (*ConnectedComponents) InitialFrontier(g *graph.Graph) []graph.VertexID { return nil }

// Identity implements Kernel.
func (*ConnectedComponents) Identity() float64 { return math.Inf(1) }

// Emit implements Kernel: the label itself.
func (*ConnectedComponents) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	return value, true
}

// Apply implements Kernel: adopt a strictly smaller label and reactivate.
func (*ConnectedComponents) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate && agg < old {
		return agg, true
	}
	return old, false
}

// GatherSkip implements GatherKernel: labels are non-negative, so a
// vertex already holding the lattice bottom 0 can never improve — its
// push-direction Apply would be a no-op.
func (*ConnectedComponents) GatherSkip(old float64) bool { return old == 0 }

// GatherDone implements GatherKernel: once the aggregate hits label 0 no
// in-neighbor can lower it further.
func (*ConnectedComponents) GatherDone(agg float64) bool { return agg == 0 }

// BFS computes hop counts from a source vertex. Unreached vertices keep
// +Inf.
type BFS struct {
	source graph.VertexID
}

// NewBFS returns a BFS kernel rooted at source.
func NewBFS(source graph.VertexID) *BFS { return &BFS{source: source} }

// Name implements Kernel.
func (*BFS) Name() string { return "bfs" }

// Source implements SourcedKernel.
func (b *BFS) Source() graph.VertexID { return b.source }

// Traits implements Kernel.
func (*BFS) Traits() Traits {
	return Traits{
		MaxIterations: 10_000,
		Agg:           AggMin,
		FLOPsPerEdge:  0.5,
		FLOPsPerApply: 0.5,
	}
}

// InitialValue implements Kernel.
func (b *BFS) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	if v == b.source {
		return 0
	}
	return math.Inf(1)
}

// InitialFrontier implements Kernel.
func (b *BFS) InitialFrontier(g *graph.Graph) []graph.VertexID {
	return []graph.VertexID{b.source}
}

// Identity implements Kernel.
func (*BFS) Identity() float64 { return math.Inf(1) }

// Emit implements Kernel: level+1 to each neighbor.
func (*BFS) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if math.IsInf(value, 1) {
		return 0, false
	}
	return value + 1, true
}

// Apply implements Kernel.
func (*BFS) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate && agg < old {
		return agg, true
	}
	return old, false
}

// GatherSkip implements GatherKernel: a visited vertex can be skipped.
// Every frontier vertex holds the current level L (induction on the
// engine's iterations), so all contributions are L+1 — at least one more
// than any already-assigned level — and the skipped Apply would be a
// no-op.
func (*BFS) GatherSkip(old float64) bool { return !math.IsInf(old, 1) }

// GatherDone implements GatherKernel: contributions within one iteration
// are uniform (all L+1), so the first accepted one settles the min.
func (*BFS) GatherDone(agg float64) bool { return true }

// SSSP computes single-source shortest path distances over edge weights
// (frontier-driven Bellman–Ford). Requires a weighted graph with
// non-negative weights.
type SSSP struct {
	source graph.VertexID
}

// NewSSSP returns an SSSP kernel rooted at source.
func NewSSSP(source graph.VertexID) *SSSP { return &SSSP{source: source} }

// Name implements Kernel.
func (*SSSP) Name() string { return "sssp" }

// Source implements SourcedKernel.
func (s *SSSP) Source() graph.VertexID { return s.source }

// Traits implements Kernel.
func (*SSSP) Traits() Traits {
	return Traits{
		UsesFloatingPoint: true,
		MaxIterations:     10_000,
		Edge:              EdgeAddWeight,
		Agg:               AggMin,
		FLOPsPerEdge:      1, // add + compare
		FLOPsPerApply:     0.5,
	}
}

// InitialValue implements Kernel.
func (s *SSSP) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	if v == s.source {
		return 0
	}
	return math.Inf(1)
}

// InitialFrontier implements Kernel.
func (s *SSSP) InitialFrontier(g *graph.Graph) []graph.VertexID {
	return []graph.VertexID{s.source}
}

// Identity implements Kernel.
func (*SSSP) Identity() float64 { return math.Inf(1) }

// Emit implements Kernel: the distance; each edge adds its weight
// (EdgeAddWeight).
func (*SSSP) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if math.IsInf(value, 1) {
		return 0, false
	}
	return value, true
}

// Apply implements Kernel.
func (*SSSP) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate && agg < old {
		return agg, true
	}
	return old, false
}

// GatherSkip implements GatherKernel: weights are non-negative (enforced
// by CheckGraph), so distance 0 is the lattice bottom and cannot improve.
func (*SSSP) GatherSkip(old float64) bool { return old == 0 }

// GatherDone implements GatherKernel: an aggregate of 0 cannot be
// lowered by further non-negative contributions.
func (*SSSP) GatherDone(agg float64) bool { return agg == 0 }

// SSWP computes single-source widest paths: the maximum over paths of the
// minimum edge weight along the path. An extension kernel exercising the
// max-aggregation path through the engines and in-network elements.
type SSWP struct {
	source graph.VertexID
}

// NewSSWP returns an SSWP kernel rooted at source.
func NewSSWP(source graph.VertexID) *SSWP { return &SSWP{source: source} }

// Name implements Kernel.
func (*SSWP) Name() string { return "sswp" }

// Source implements SourcedKernel.
func (s *SSWP) Source() graph.VertexID { return s.source }

// Traits implements Kernel.
func (*SSWP) Traits() Traits {
	return Traits{
		UsesFloatingPoint: true,
		MaxIterations:     10_000,
		Edge:              EdgeMinWeight,
		Agg:               AggMax,
		FLOPsPerEdge:      1,
		FLOPsPerApply:     0.5,
	}
}

// InitialValue implements Kernel.
func (s *SSWP) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	if v == s.source {
		return math.Inf(1)
	}
	return 0
}

// InitialFrontier implements Kernel.
func (s *SSWP) InitialFrontier(g *graph.Graph) []graph.VertexID {
	return []graph.VertexID{s.source}
}

// Identity implements Kernel.
func (*SSWP) Identity() float64 { return 0 }

// Emit implements Kernel: the width of the path so far; each edge takes
// the bottleneck of it and its own weight (EdgeMinWeight).
func (*SSWP) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if value == 0 {
		return 0, false
	}
	return value, true
}

// Apply implements Kernel.
func (*SSWP) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate && agg > old {
		return agg, true
	}
	return old, false
}

// GatherSkip implements GatherKernel: +Inf width (the source) is the max
// lattice's top and cannot improve.
func (*SSWP) GatherSkip(old float64) bool { return math.IsInf(old, 1) }

// GatherDone implements GatherKernel: a +Inf aggregate has saturated the
// max.
func (*SSWP) GatherDone(agg float64) bool { return math.IsInf(agg, 1) }

// InDegree counts each vertex's in-degree in a single scatter round — the
// simplest aggregation-only workload, and a useful smoke test for the
// in-network aggregation path (pure sum, one iteration).
type InDegree struct{}

// NewInDegree returns the in-degree kernel.
func NewInDegree() *InDegree { return &InDegree{} }

// Name implements Kernel.
func (*InDegree) Name() string { return "indegree" }

// Traits implements Kernel.
func (*InDegree) Traits() Traits {
	return Traits{
		MaxIterations: 1,
		Agg:           AggSum,
		FLOPsPerEdge:  0.5,
		FLOPsPerApply: 0.5,
	}
}

// InitialValue implements Kernel.
func (*InDegree) InitialValue(g *graph.Graph, v graph.VertexID) float64 { return 0 }

// InitialFrontier implements Kernel.
func (*InDegree) InitialFrontier(g *graph.Graph) []graph.VertexID { return nil }

// Identity implements Kernel.
func (*InDegree) Identity() float64 { return 0 }

// Emit implements Kernel: each edge contributes one.
func (*InDegree) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	return 1, true
}

// Apply implements Kernel: store the count; never reactivate.
func (*InDegree) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate {
		return agg, false
	}
	return old, false
}

// Reachability marks every vertex reachable from the source with 1.
type Reachability struct {
	source graph.VertexID
}

// NewReachability returns a reachability kernel rooted at source.
func NewReachability(source graph.VertexID) *Reachability {
	return &Reachability{source: source}
}

// Name implements Kernel.
func (*Reachability) Name() string { return "reach" }

// Source implements SourcedKernel.
func (r *Reachability) Source() graph.VertexID { return r.source }

// Traits implements Kernel.
func (*Reachability) Traits() Traits {
	return Traits{
		MaxIterations: 10_000,
		Agg:           AggMax,
		FLOPsPerEdge:  0.5,
		FLOPsPerApply: 0.5,
	}
}

// InitialValue implements Kernel.
func (r *Reachability) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	if v == r.source {
		return 1
	}
	return 0
}

// InitialFrontier implements Kernel.
func (r *Reachability) InitialFrontier(g *graph.Graph) []graph.VertexID {
	return []graph.VertexID{r.source}
}

// Identity implements Kernel.
func (*Reachability) Identity() float64 { return 0 }

// Emit implements Kernel.
func (*Reachability) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if value == 0 {
		return 0, false
	}
	return 1, true
}

// Apply implements Kernel.
func (*Reachability) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if hasUpdate && agg > old {
		return agg, true
	}
	return old, false
}

// GatherSkip implements GatherKernel: an already-reached vertex (value 1,
// the max lattice's top) cannot improve.
func (*Reachability) GatherSkip(old float64) bool { return old != 0 }

// GatherDone implements GatherKernel: every contribution is 1, so the
// first accepted one settles the max.
func (*Reachability) GatherDone(agg float64) bool { return true }
