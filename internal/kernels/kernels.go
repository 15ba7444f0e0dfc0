// Package kernels defines the vertex-program abstraction shared by every
// execution engine in this framework, plus the analytics kernels the paper
// evaluates (PageRank, Connected Components, BFS, SSSP) and several
// extensions (SSWP, in-degree centrality, reachability).
//
// The abstraction mirrors the three functions in the paper's Figure 1:
//
//   - Traverse: walk the out-edges of frontier vertices, producing one
//     contribution per edge — a per-source Emit and a declared per-edge
//     operator (Traits.Edge) here;
//   - Apply: reduce contributions targeting the same destination (the
//     declared Traits.Agg here) — this is the operation in-network
//     elements can execute, so it must be commutative and associative;
//   - Update: fold the aggregate into the destination's property and
//     decide whether the destination joins the next frontier (Apply here).
//
// The per-edge work is a declared menu, not a callback: Table I's devices
// execute nothing else, and an engine that knows the two operators can
// run them as plain arithmetic in its edge loops.
//
// Vertex properties are float64 values: PageRank ranks, CC labels, BFS
// levels, and SSSP distances all embed exactly (labels are integers below
// 2^53). A fixed property type keeps every engine monomorphic and makes
// the paper's byte accounting (16 B per update) uniform.
package kernels

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
)

// AggOp names the reduction applied to contributions that target the same
// destination. In-network compute elements (Table I: SwitchML, SHARP)
// support exactly these simple reductions, so engines consult it for
// offload eligibility.
type AggOp int

// Supported reduction operators.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
)

// String returns the operator name.
func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// Reduce applies the reduction to (a, b). It is the definition the kernel
// engine's inlined loops are held to, bit for bit — min and max are
// math.Min and math.Max, NaN and signed-zero cases included.
func (op AggOp) Reduce(a, b float64) float64 {
	switch op {
	case AggSum:
		return a + b
	case AggMin:
		return math.Min(a, b)
	case AggMax:
		return math.Max(a, b)
	default:
		//lint:ignore panicpath exhaustive switch over the package's own enum; a new AggOp must extend this switch
		panic(fmt.Sprintf("kernels: unknown AggOp %d", op))
	}
}

// EdgeOp names what an edge does to the value its source emits on the way
// to the destination: the per-edge half of the paper's Traverse. Together
// with AggOp it is the whole per-edge datapath.
type EdgeOp int

// Supported edge operators.
const (
	// EdgeCopy delivers the emitted value unchanged (BFS, CC, PageRank).
	EdgeCopy EdgeOp = iota
	// EdgeAddWeight delivers base + weight (SSSP).
	EdgeAddWeight
	// EdgeMinWeight delivers min(base, weight) (SSWP's bottleneck).
	EdgeMinWeight
)

// String returns the operator name.
func (op EdgeOp) String() string {
	switch op {
	case EdgeCopy:
		return "copy"
	case EdgeAddWeight:
		return "add-weight"
	case EdgeMinWeight:
		return "min-weight"
	default:
		return fmt.Sprintf("EdgeOp(%d)", int(op))
	}
}

// Combine applies the edge operator to the value a source emitted and one
// edge's weight (EdgeCopy ignores it; the others run only on weighted
// graphs, CheckGraph). Like AggOp.Reduce it is the definition the engine's
// inlined loops are held to.
func (op EdgeOp) Combine(base float64, w float32) float64 {
	switch op {
	case EdgeCopy:
		return base
	case EdgeAddWeight:
		return base + float64(w)
	case EdgeMinWeight:
		return math.Min(base, float64(w))
	default:
		//lint:ignore panicpath exhaustive switch over the package's own enum; a new EdgeOp must extend this switch
		panic(fmt.Sprintf("kernels: unknown EdgeOp %d", op))
	}
}

// Traits describes a kernel's static execution profile. Engines use it to
// drive iteration (fixed-point vs frontier), and the NDP layer uses the
// operation flags to decide which device classes can run the kernel
// (Table I: UPMEM has primitive FP and weak integer multiply/divide).
type Traits struct {
	// UsesFloatingPoint marks kernels whose Emit/Apply do FP arithmetic
	// (PageRank) rather than integer/comparison work (BFS, CC).
	UsesFloatingPoint bool
	// UsesIntMulDiv marks kernels needing integer multiply/divide, which
	// some PIM devices support only slowly.
	UsesIntMulDiv bool
	// AllVerticesActive marks fixed-point kernels (PageRank) whose
	// frontier is the full vertex set every iteration, terminating on
	// MaxIterations or the Epsilon residual.
	AllVerticesActive bool
	// Epsilon is the L1-residual convergence threshold for fixed-point
	// kernels; 0 disables the residual check.
	Epsilon float64
	// MaxIterations bounds the iteration count (safety net for frontier
	// kernels, the budget for fixed-point kernels).
	MaxIterations int
	// Edge is the per-edge operator and Agg the reduction operator: the
	// two declared pieces of the traversal datapath. An Edge that reads
	// weights requires a weighted graph with non-negative weights
	// (CheckGraph).
	Edge EdgeOp
	Agg  AggOp
	// FLOPsPerEdge and FLOPsPerApply estimate arithmetic intensity for the
	// compute-requirement analysis behind Figure 4.
	FLOPsPerEdge  float64
	FLOPsPerApply float64
}

// Bytes per unit in the paper's accounting model (Section IV-A: 8 bytes
// per edge, 16 bytes per intermediate update for PageRank; a vertex
// property record is an id plus a value).
const (
	EdgeBytes     = 8
	UpdateBytes   = 16
	PropertyBytes = 16
)

// Kernel is a vertex program. Implementations must be stateless: all
// mutable state lives in the engine so that one Kernel value can be shared
// by concurrent engines.
type Kernel interface {
	// Name identifies the kernel in reports ("pagerank", "bfs", ...).
	Name() string
	// Traits returns the kernel's static profile.
	Traits() Traits
	// InitialValue returns vertex v's property before iteration 0.
	InitialValue(g *graph.Graph, v graph.VertexID) float64
	// InitialFrontier returns the vertices active in iteration 0. A nil
	// return means "all vertices".
	InitialFrontier(g *graph.Graph) []graph.VertexID
	// Identity is the neutral element of Traits.Agg over the kernel's
	// value domain.
	Identity() float64
	// Emit produces the value active vertex v sends along each of its
	// out-edges, before Traits.Edge combines it with the edge's weight:
	// edge (v, dst, w) contributes Traits.Edge.Combine(base, w) to dst.
	// ok=false suppresses every update from v (e.g. unreachable source).
	// Engines call it once per frontier vertex, never per edge.
	Emit(v graph.VertexID, value float64, outDegree int64) (base float64, ok bool)
	// Apply folds the aggregated contribution into the old property and
	// reports whether the vertex activates for the next iteration.
	// hasUpdate is false when no edge targeted the vertex this iteration
	// (only fixed-point kernels see Apply in that case).
	Apply(g *graph.Graph, v graph.VertexID, old, agg float64, hasUpdate bool) (float64, bool)
}

// SourcedKernel is implemented by kernels rooted at a source vertex (BFS,
// SSSP, SSWP, reachability).
type SourcedKernel interface {
	Kernel
	Source() graph.VertexID
}

// GatherKernel is implemented by frontier-driven kernels whose traversal
// can also run in the pull direction: instead of scattering the
// frontier's out-edges, the engine scans destination vertices and probes
// their in-neighbors for frontier members, calling the same Emit on
// each hit. Pull is sound exactly when the two hooks below are: with an
// exact (order-independent) reduction such as min or max, the pull
// direction visits the same contribution set as push and must therefore
// produce bit-identical results — a property ndpverify's
// direction-differential oracle enforces.
type GatherKernel interface {
	Kernel
	// GatherSkip reports that a vertex whose property is old can be
	// skipped entirely by a pull iteration: no aggregated contribution
	// from the current frontier could change its value or activate it
	// (e.g. a BFS vertex that already has a level). Skipping must be a
	// pure refinement of push — the skipped vertex's Apply would have
	// been a no-op.
	GatherSkip(old float64) bool
	// GatherDone reports that the running aggregate agg has saturated:
	// no further contribution can change it, so the in-neighbor scan may
	// stop early. This early exit is the entire win of the pull
	// direction (Beamer's bottom-up step).
	GatherDone(agg float64) bool
}

// StatefulKernel is implemented by kernels that keep per-vertex side state
// which the traversal consumes (delta-PageRank residuals). Engines call
// OnScattered(v) for every frontier vertex after the traversal phase
// completes and before any Apply of the same iteration, marking v's
// pending state as propagated.
type StatefulKernel interface {
	Kernel
	OnScattered(v graph.VertexID)
}

// kernelEntry ties one canonical name, its accepted aliases, and the
// default constructor together. The registry below is THE source for
// Names, ByName, All, and the "available:" error text, so the four can
// never drift apart; the canonical name must equal the constructed
// kernel's Name() (enforced by TestRegistryNamesMatchKernels).
type kernelEntry struct {
	name    string
	aliases []string
	make    func() Kernel
}

// registry is sorted by canonical name and built once, so a lookup
// allocates only the kernel it constructs. Defaults: bfs/sssp/sswp/
// reachability/ppr start from source 0.
var registry = []kernelEntry{
	{"bfs", nil, func() Kernel { return NewBFS(0) }},
	{"cc", []string{"connectedcomponents"}, func() Kernel { return NewConnectedComponents() }},
	{"indegree", []string{"degree"}, func() Kernel { return NewInDegree() }},
	{"pagerank", []string{"pr"}, func() Kernel { return NewPageRank(DefaultPageRankIterations, DefaultDamping) }},
	{"pagerank-delta", []string{"prdelta"}, func() Kernel { return NewPageRankDelta(DefaultDamping, 1e-9) }},
	{"ppr", nil, func() Kernel { return NewPersonalizedPageRank(0, DefaultPageRankIterations, DefaultDamping) }},
	{"reach", []string{"reachability"}, func() Kernel { return NewReachability(0) }},
	{"sssp", nil, func() Kernel { return NewSSSP(0) }},
	{"sswp", nil, func() Kernel { return NewSSWP(0) }},
}

// Names lists the canonical kernel names ByName accepts, sorted
// (aliases like "pr" and "degree" are accepted too but not listed).
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName constructs a kernel by canonical name or alias with default
// parameters.
func ByName(name string) (Kernel, error) {
	for _, e := range registry {
		if name == e.name {
			return e.make(), nil
		}
		for _, alias := range e.aliases {
			if name == alias {
				return e.make(), nil
			}
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q (available: %s)", name, strings.Join(Names(), ", "))
}

// All returns one instance of every kernel in registry (name-sorted)
// order, for table-driven tests and the Figure 4 sweep.
func All() []Kernel {
	kernels := make([]Kernel, len(registry))
	for i, e := range registry {
		kernels[i] = e.make()
	}
	return kernels
}
