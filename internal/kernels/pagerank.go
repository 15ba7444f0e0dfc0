package kernels

import "repro/internal/graph"

// Default PageRank parameters, matching common graph-framework defaults.
const (
	DefaultPageRankIterations = 20
	DefaultDamping            = 0.85
)

// PageRank is the classic damped random-surfer rank, run as a fixed-point
// iteration: every vertex is active every iteration, each frontier vertex
// scatters rank/outdeg along its out-edges, and Apply folds the damped sum.
//
// This is the paper's primary workload (Figures 5, 6, 7c): its all-active
// frontier maximises traversal volume, which is what makes offloading the
// traversal phase so profitable on high-degree graphs.
type PageRank struct {
	iterations int
	damping    float64
}

// NewPageRank returns a PageRank kernel with the given iteration budget
// and damping factor.
func NewPageRank(iterations int, damping float64) *PageRank {
	if iterations <= 0 {
		iterations = DefaultPageRankIterations
	}
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	return &PageRank{iterations: iterations, damping: damping}
}

// Name implements Kernel.
func (p *PageRank) Name() string { return "pagerank" }

// Traits implements Kernel.
func (p *PageRank) Traits() Traits {
	return Traits{
		UsesFloatingPoint: true,
		AllVerticesActive: true,
		Epsilon:           1e-9,
		MaxIterations:     p.iterations,
		Agg:               AggSum,
		FLOPsPerEdge:      1, // one divide amortised + one add
		FLOPsPerApply:     2, // multiply + add
	}
}

// InitialValue implements Kernel: uniform 1/N rank.
func (p *PageRank) InitialValue(g *graph.Graph, v graph.VertexID) float64 {
	return 1 / float64(g.NumVertices())
}

// InitialFrontier implements Kernel: all vertices.
func (p *PageRank) InitialFrontier(g *graph.Graph) []graph.VertexID { return nil }

// Identity implements Kernel.
func (p *PageRank) Identity() float64 { return 0 }

// Emit implements Kernel: each out-edge carries rank/outdeg.
func (p *PageRank) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if outDegree == 0 {
		return 0, false
	}
	return value / float64(outDegree), true
}

// Apply implements Kernel: rank = (1-d)/N + d * inbound. Always activates;
// the engine terminates on the iteration budget or the epsilon residual.
func (p *PageRank) Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool) {
	n := float64(g.NumVertices())
	next := (1-p.damping)/n + p.damping*agg
	return next, true
}
