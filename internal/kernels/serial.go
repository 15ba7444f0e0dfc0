package kernels

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Result holds the output of a kernel run plus per-iteration execution
// telemetry. Every engine in the framework produces a Result — the four
// simulated architectures hand back the kernel engine's own — and tests
// require them to agree on Values.
type Result struct {
	// Values is the final vertex property vector.
	Values []float64
	// Iterations is the number of executed iterations.
	Iterations int
	// FrontierSizes[i] is the number of active vertices in iteration i.
	FrontierSizes []int64
	// ActiveEdges[i] is the total out-degree of iteration i's frontier,
	// i.e. the nominal traversal volume — in both directions, so push and
	// pull runs stay comparable.
	ActiveEdges []int64
	// Converged reports whether the run terminated by convergence (empty
	// frontier or epsilon residual) rather than the iteration budget.
	Converged bool
	// PushIterations and PullIterations count the direction the kernel
	// engine chose per iteration. The simulated architectures force push
	// (their counters are defined over scattered partials), so theirs
	// reads all push.
	PushIterations, PullIterations int
	// EdgesInspected counts the edge probes actually made: the frontier's
	// out-edge volume for push iterations and the in-neighbor probes
	// (with early exit) for pull iterations.
	EdgesInspected int64
}

// ErrNeedsWeights is returned when a weighted kernel runs on an
// unweighted graph.
var ErrNeedsWeights = errors.New("kernels: kernel requires a weighted graph")

// ErrEdgePath is returned for a kernel whose (Traits.Edge, Traits.Agg)
// pair the engine has no edge loop for: add-weight with sum or max, and
// min-weight with sum or min. No kernel declares them, and add-weight/max
// is a longest path, which never settles on a cycle.
var ErrEdgePath = errors.New("kernels: no edge loop for the kernel's (edge, reduce) pair")

// CheckGraph validates that g satisfies k's requirements. How the facts
// are known is the source's business: an in-memory CSR scans its
// weights, a container reads the flag its writer recorded.
func CheckGraph(g Source, k Kernel) error {
	tr := k.Traits()
	if _, ok := pathOf(tr.Edge, tr.Agg); !ok {
		return fmt.Errorf("%w: %s declares %v/%v", ErrEdgePath, k.Name(), tr.Edge, tr.Agg)
	}
	if tr.Edge != EdgeCopy {
		// The edge operator reads weights.
		if !g.Weighted() {
			return fmt.Errorf("%w: %s", ErrNeedsWeights, k.Name())
		}
		// Negative weights make frontier Bellman–Ford (and min/max path
		// semantics generally) non-terminating on cycles; reject up front
		// rather than looping to the iteration cap.
		if !g.NonNegativeWeights() {
			return fmt.Errorf("kernels: %s requires non-negative weights", k.Name())
		}
	}
	if sk, ok := k.(SourcedKernel); ok {
		if int(sk.Source()) >= g.NumVertices() {
			return fmt.Errorf("kernels: source %d outside graph with %d vertices", sk.Source(), g.NumVertices())
		}
	}
	return nil
}

// RunSerial executes the kernel on a single address space with no
// distribution — the ground-truth reference all simulated architectures
// are validated against. Direction optimization is on (DirectionAuto):
// kernels implementing GatherKernel may run dense iterations in the pull
// direction, which is bit-identical to push on Values and every shared
// telemetry field, and reflected in PullIterations/EdgesInspected.
func RunSerial(g *graph.Graph, k Kernel) (*Result, error) {
	return RunSerialWith(g, k, Options{})
}

// RunSerialWith is RunSerial with explicit engine options (a forced
// traversal direction). The Workers option is ignored; use Run for the
// parallel machine.
func RunSerialWith(g *graph.Graph, k Kernel, opt Options) (*Result, error) {
	return RunOn(context.TODO(), g, k, Serial, opt)
}
