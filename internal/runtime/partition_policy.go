package runtime

import "repro/internal/sim"

// MixedOracle lets every memory node independently pick, post hoc, the
// cheaper of shipping its edge partition or its partial updates. It is
// the per-partition lower bound — strictly at or below the global
// Oracle, because the global decision forces all memory nodes to agree.
// The gap between the two quantifies the value of the "where to offload"
// control Section IV argues frameworks must expose.
type MixedOracle struct{}

// Name implements sim.OffloadPolicy.
func (MixedOracle) Name() string { return "mixed-oracle" }

// Decide implements sim.OffloadPolicy (unused; accounting is post hoc).
func (MixedOracle) Decide(sim.PreStats) bool { return true }

// PartitionPostHoc marks per-partition min-cost accounting.
func (MixedOracle) PartitionPostHoc() {}

// PartitionHeuristic decides offload for each memory node separately:
// Heuristic's decision on each node's one-partition view, so node p
// offloads when its estimated partial updates (plus its share of the
// write-back) undercut shipping its share of the frontier's edges.
type PartitionHeuristic struct{}

// Name implements sim.OffloadPolicy.
func (PartitionHeuristic) Name() string { return "partition-heuristic" }

// Decide implements sim.OffloadPolicy — the aggregate fallback when an
// engine does not support per-partition decisions.
func (PartitionHeuristic) Decide(s sim.PreStats) bool {
	return Heuristic{}.Decide(s)
}

// DecidePartitions implements sim.PartitionPolicy.
func (PartitionHeuristic) DecidePartitions(parts []sim.PreStats) []bool {
	mask := make([]bool, len(parts))
	for p, s := range parts {
		mask[p] = Heuristic{}.Decide(s)
	}
	return mask
}

// Interface conformance checks.
var (
	_ sim.PartitionPostHocPolicy = MixedOracle{}
	_ sim.PartitionPolicy        = PartitionHeuristic{}
)
