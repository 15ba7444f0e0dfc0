package runtime

import "repro/internal/sim"

// PartitionHeuristic decides offload for each memory node separately:
// Heuristic's decision on each node's one-partition view (sim.View.Node),
// so node p offloads when its estimated partial updates (plus its share
// of the write-back) undercut shipping its share of the frontier's edges.
type PartitionHeuristic struct{}

// Name implements sim.OffloadPolicy.
func (PartitionHeuristic) Name() string { return "partition-heuristic" }

// Choose implements sim.OffloadPolicy: one decision a memory node.
func (PartitionHeuristic) Choose(v *sim.View) sim.Choice {
	mask := make([]bool, v.Pool.Partitions)
	for p := range mask {
		mask[p] = Heuristic{}.offloads(v.Node(p))
	}
	return sim.Choice{Nodes: mask}
}
