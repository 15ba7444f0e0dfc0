// Package runtime provides the decision-making layer the paper argues
// future graph frameworks need (Section IV): per-iteration offload
// policies that weigh shipping edge lists against shipping partial
// updates, using exactly the heuristic inputs the paper names — frontier
// size, the degrees of frontier vertices, the cross-edge profile of the
// partitioning, and the scale of distribution.
package runtime

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// Heuristic decides offload per iteration from pre-traversal metadata.
//
// Cost model:
//
//	fetch  ≈ frontierDegreeSum · 8 B
//	offload≈ estPartialUpdates · 16 B + frontierSize · 16 B (write-back)
//
// The partial-update estimate is a balls-into-bins collapse against the
// partitioning's *static* full-frontier partial count S (a load-time
// statistic that encodes destination skew): a traversal of d edges
// produces about S·(1-e^(-d/S)) partial updates. When S is unavailable the
// estimate falls back to a uniform-destination model over the vertex set.
type Heuristic struct {
	// Aggregation estimates the in-network-aggregated volume instead of
	// the raw partial-update volume (use when the engine enables INC).
	Aggregation bool
}

// Name implements sim.OffloadPolicy.
func (h Heuristic) Name() string {
	if h.Aggregation {
		return "heuristic+inc"
	}
	return "heuristic"
}

// Decide implements sim.OffloadPolicy.
func (h Heuristic) Decide(s sim.PreStats) bool {
	fetch := float64(s.FrontierDegreeSum) * kernels.EdgeBytes
	return h.EstimateOffloadBytes(s) < fetch
}

// EstimateOffloadBytes returns the estimated bytes an offloaded iteration
// would move to and from the compute nodes.
func (h Heuristic) EstimateOffloadBytes(s sim.PreStats) float64 {
	est := h.estimatePartials(s)
	if h.Aggregation {
		// The switch compresses partials to roughly the distinct
		// destination count: one more balls-into-bins collapse.
		n := float64(s.NumVertices)
		if n > 0 {
			est = math.Min(est, n*(1-math.Exp(-est/n)))
		}
	}
	writeback := float64(s.FrontierSize) * kernels.PropertyBytes
	return est*kernels.UpdateBytes + writeback
}

// estimatePartials predicts the distinct (destination, partition) count.
func (h Heuristic) estimatePartials(s sim.PreStats) float64 {
	d := float64(s.FrontierDegreeSum)
	n := float64(s.NumVertices)
	p := float64(s.Partitions)
	if d == 0 {
		return 0
	}
	if n == 0 || p == 0 {
		// Degenerate stats (no pool width / vertex count reported): the
		// collapse models below would divide by zero. Returning 0 here
		// would make offload look free; the safe degenerate estimate is
		// the no-dedup upper bound — every scatter its own partial.
		return d
	}
	var model float64
	if S := float64(s.StaticPartialUpdates); S > 0 {
		// Skew-aware: d of the graph's edges land in S static
		// (destination, partition) bins.
		model = S * (1 - math.Exp(-d/S))
	} else {
		// Uniform fallback: each partition sees d/p scatters over n bins.
		model = p * n * (1 - math.Exp(-d/(p*n)))
	}
	if model > d {
		model = d
	}
	return model
}

// Oracle picks, after the iteration's costs are both measured, whichever
// of fetch and offload moved fewer bytes. It is the per-iteration lower
// bound among the two mechanisms and the yardstick dynamic policies are
// judged against (the paper's Figure 7 discussion).
type Oracle struct{}

// Name implements sim.OffloadPolicy.
func (Oracle) Name() string { return "oracle" }

// Decide implements sim.OffloadPolicy; the value is ignored because the
// engine applies post-hoc min-cost accounting (see PostHoc).
func (Oracle) Decide(sim.PreStats) bool { return true }

// PostHoc marks Oracle for post-hoc accounting.
func (Oracle) PostHoc() {}

// ThresholdPolicy offloads when the frontier's average out-degree exceeds
// Threshold — the simplest degree heuristic the paper suggests. With
// 16-byte updates and 8-byte edges, degrees below ~2·Partitions rarely
// amortize the update traffic, so Threshold defaults to twice the
// partition count when zero.
type ThresholdPolicy struct {
	Threshold float64
}

// Name implements sim.OffloadPolicy.
func (ThresholdPolicy) Name() string { return "degree-threshold" }

// Decide implements sim.OffloadPolicy.
func (t ThresholdPolicy) Decide(s sim.PreStats) bool {
	if s.FrontierSize == 0 {
		return false
	}
	th := t.Threshold
	if th <= 0 {
		if s.Partitions <= 0 {
			// Degenerate topology: no memory pool to offload to, and the
			// derived threshold would collapse to 0 ("always offload").
			return false
		}
		th = 2 * float64(s.Partitions)
	}
	avgDeg := float64(s.FrontierDegreeSum) / float64(s.FrontierSize)
	return avgDeg > th
}

// Interface conformance checks.
var (
	_ sim.OffloadPolicy = Heuristic{}
	_ sim.OffloadPolicy = ThresholdPolicy{}
	_ sim.PostHocPolicy = Oracle{}
)
