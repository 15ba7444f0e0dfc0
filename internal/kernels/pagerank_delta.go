package kernels

import (
	"math"

	"repro/internal/graph"
)

// PageRankDelta is the incremental (residual-propagating) formulation of
// PageRank: vertices hold their accumulated rank, scatter only their
// *residual* (new mass since they last scattered), and deactivate once
// the residual falls below a threshold. Frontiers therefore shrink as the
// computation converges — unlike classic PageRank's all-active iterations
// — which makes this kernel the natural stress test for per-iteration
// offload decisions (Section IV-D): early iterations look like PageRank,
// late iterations like BFS tails.
//
// The engine's value array holds the accumulated rank; the residual
// travels through the emit/reduce path. Emit reads the pending
// residual, OnScattered (the StatefulKernel hook) marks it consumed after
// the traversal, and Apply accumulates newly arrived mass — so
// sub-threshold residue is never dropped, only deferred.
type PageRankDelta struct {
	damping   float64
	threshold float64
	// residual[v] is the rank mass v has accumulated but not yet
	// propagated. Reinitialised by InitialFrontier, which every engine
	// invokes exactly once per run before iteration 0, so one kernel
	// instance is reusable across runs.
	residual []float64
}

var _ StatefulKernel = (*PageRankDelta)(nil)

// NewPageRankDelta returns a delta-PageRank kernel. threshold is the
// residual below which a vertex deactivates (default 1e-9 when <= 0).
func NewPageRankDelta(damping, threshold float64) *PageRankDelta {
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	if threshold <= 0 {
		threshold = 1e-9
	}
	return &PageRankDelta{damping: damping, threshold: threshold}
}

// Name implements Kernel.
func (p *PageRankDelta) Name() string { return "pagerank-delta" }

// Traits implements Kernel.
func (p *PageRankDelta) Traits() Traits {
	return Traits{
		UsesFloatingPoint: true,
		MaxIterations:     10_000,
		Agg:               AggSum,
		FLOPsPerEdge:      1,
		FLOPsPerApply:     2,
	}
}

// InitialValue implements Kernel: every vertex starts with the teleport
// mass (1-d)/N already applied.
func (p *PageRankDelta) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	return (1 - p.damping) / float64(g.NumVertices())
}

// InitialFrontier implements Kernel: all vertices, each with its initial
// value as pending residual. This call also (re)initialises the residual
// table, making one kernel instance reusable across runs.
func (p *PageRankDelta) InitialFrontier(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	p.residual = make([]float64, n)
	out := make([]graph.VertexID, n)
	base := (1 - p.damping) / float64(n)
	for v := 0; v < n; v++ {
		p.residual[v] = base
		out[v] = graph.VertexID(v)
	}
	return out
}

// Identity implements Kernel.
func (p *PageRankDelta) Identity() float64 { return 0 }

// Emit implements Kernel: propagate the residual share along each
// out-edge.
func (p *PageRankDelta) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	r := p.residual[v]
	if r == 0 || outDegree == 0 {
		return 0, false
	}
	return r / float64(outDegree), true
}

// OnScattered implements StatefulKernel: v's pending residual was
// propagated along all of v's out-edges this iteration.
func (p *PageRankDelta) OnScattered(v graph.VertexID) {
	p.residual[v] = 0
}

// Apply implements Kernel: accumulate the damped incoming mass into both
// the rank and the pending residual; reactivate while the pending mass is
// significant. Engines call OnScattered for the iteration's frontier
// before Apply, so residue surviving here is exactly the un-propagated
// mass.
func (p *PageRankDelta) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	if !hasUpdate {
		return old, false
	}
	inc := p.damping * agg
	p.residual[v] += inc
	return old + inc, p.residual[v] > p.threshold
}

// ResidualNorm returns the L1 norm of the outstanding residual — the
// upper bound on how far the accumulated ranks are from the fixed point.
func (p *PageRankDelta) ResidualNorm() float64 {
	var s float64
	for _, r := range p.residual {
		s += math.Abs(r)
	}
	return s
}

// PersonalizedPageRank is PageRank with teleportation restricted to a
// single source vertex: ranks measure proximity to the source. Runs as a
// fixed-point iteration like classic PageRank.
type PersonalizedPageRank struct {
	source     graph.VertexID
	iterations int
	damping    float64
}

// NewPersonalizedPageRank returns a PPR kernel rooted at source.
func NewPersonalizedPageRank(source graph.VertexID, iterations int, damping float64) *PersonalizedPageRank {
	if iterations <= 0 {
		iterations = DefaultPageRankIterations
	}
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	return &PersonalizedPageRank{source: source, iterations: iterations, damping: damping}
}

// Name implements Kernel.
func (p *PersonalizedPageRank) Name() string { return "ppr" }

// Source implements SourcedKernel.
func (p *PersonalizedPageRank) Source() graph.VertexID { return p.source }

// Traits implements Kernel.
func (p *PersonalizedPageRank) Traits() Traits {
	return Traits{
		UsesFloatingPoint: true,
		AllVerticesActive: true,
		Epsilon:           1e-12,
		MaxIterations:     p.iterations,
		Agg:               AggSum,
		FLOPsPerEdge:      1,
		FLOPsPerApply:     2,
	}
}

// InitialValue implements Kernel: all mass starts at the source.
func (p *PersonalizedPageRank) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	if v == p.source {
		return 1
	}
	return 0
}

// InitialFrontier implements Kernel.
func (p *PersonalizedPageRank) InitialFrontier(g *graph.Graph) []graph.VertexID { return nil }

// Identity implements Kernel.
func (p *PersonalizedPageRank) Identity() float64 { return 0 }

// Emit implements Kernel.
func (p *PersonalizedPageRank) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if outDegree == 0 || value == 0 {
		return 0, false
	}
	return value / float64(outDegree), true
}

// Apply implements Kernel: teleport mass returns to the source only.
func (p *PersonalizedPageRank) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	next := p.damping * agg
	if v == p.source {
		next += 1 - p.damping
	}
	return next, true
}
