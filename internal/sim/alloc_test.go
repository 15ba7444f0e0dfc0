package sim

import (
	"testing"

	"repro/internal/kernels"
)

// TestAllocGate holds a whole simulated run to its per-Record
// bookkeeping: an added iteration may allocate the Record's PerPartition
// slice and the amortized growth of Run.Records and of the Result's two
// per-iteration series — nothing else. The engine's own iteration is
// gated at zero by kernels.TestEngineAllocGate; this gate covers what the
// accountant does around it (frontier statistics, the policy call, the
// tier trace), measured as the difference between PageRank at I and 2I
// iterations so the per-run setup cancels.
func TestAllocGate(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 4)
	const iters = 16 // 2·iters stays short of PageRank's ε-convergence on this graph
	allocsAt := func(n int) float64 {
		// Workers=1 keeps the engine's phases inline: pool goroutines are
		// a per-run cost, but their scheduling would blur the count.
		e := &DisaggregatedNDP{Topo: DefaultTopology(2, 4), Assign: a, Workers: 1}
		return testing.AllocsPerRun(5, func() {
			run, err := e.Run(g, kernels.NewPageRank(n, 0))
			if err != nil || len(run.Records) != n {
				t.Fatalf("run: %v, %d records, want %d", err, len(run.Records), n)
			}
		})
	}
	// One PerPartition slice per added Record, plus at most a handful of
	// append doublings across the three growing slices.
	const growth = 6
	if extra := allocsAt(2*iters) - allocsAt(iters); extra > iters+growth {
		t.Fatalf("%d added iterations cost %.0f allocations, want at most %d", iters, extra, iters+growth)
	}
}
