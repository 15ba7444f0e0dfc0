package cluster

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// TestClusterAllocGate holds every actor's per-iteration loop to a
// reviewed allocation count: memoryNode, the switch actors (a single
// switch flat; leaf, inner and root switches with TreeFanIn 2) and
// computeNode. It is measured like sim's TestAllocGate, as the
// allocations PageRank adds between I and 2I and between 2I and 3I
// iterations, so the per-run set-up (actors, channels, accumulators)
// cancels. The two differences must be equal — an iteration costs the
// same whichever one it is, so a cost that grows with the run shows up
// here — and each must equal the pinned constant.
//
// Where the allocations come from, all by design: every sent update batch
// is a fresh slice, because its receiver reads it after acknowledging;
// each iteration makes its links (a sequence window and an ack channel
// per link) and the closures that transmit on them; and each switch makes
// its per-iteration output slices and duplicate filter. A re-allocated
// accumulator, a defer or an escaping closure per iteration, a boxed
// value appended per iteration: each moves the count.
func TestClusterAllocGate(t *testing.T) {
	g, err := gen.Community(6000, 12, 8, 0.85, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.LDG{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 8 // 3·iters stays short of PageRank's convergence on this graph
	for _, tc := range []struct {
		name     string
		fanIn    int
		perIters float64 // allocations of iters added iterations
	}{
		{"flat", 0, 1833},
		{"fanin=2", 2, 7009},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: tc.fanIn}
			allocsAt := func(n int) float64 {
				return testing.AllocsPerRun(5, func() {
					out, err := Run(context.Background(), g, kernels.NewPageRank(n, 0), a, cfg)
					if err != nil || out.Iterations != n {
						t.Fatalf("run: %v, %d iterations, want %d", err, out.Iterations, n)
					}
				})
			}
			at1, at2, at3 := allocsAt(iters), allocsAt(2*iters), allocsAt(3*iters)
			first, second := at2-at1, at3-at2
			if first != second {
				t.Errorf("iterations %d–%d cost %.0f allocations but %d–%d cost %.0f: an iteration's cost grows with the run", iters, 2*iters, first, 2*iters, 3*iters, second)
			}
			if first != tc.perIters {
				t.Errorf("%d added iterations cost %.0f allocations, want %.0f: the count is a reviewed number — a change that moves it updates it here, with why", iters, first, tc.perIters)
			}
		})
	}
}
