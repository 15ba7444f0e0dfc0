// Package runtime provides the decision-making layer the paper argues
// future graph frameworks need (Section IV): per-iteration offload
// policies that weigh shipping edge lists against shipping partial
// updates, using exactly the heuristic inputs the paper names — frontier
// size, the degrees of frontier vertices, the cross-edge profile of the
// partitioning, and the scale of distribution. Each implements
// sim.OffloadPolicy and reads only a sim.View's pre-traversal PreStats,
// for the pool or node by node; the oracles, which read an iteration's
// realised costs, are sim's own (sim.Oracle, sim.MixedOracle). The
// registry (Names, ByName) lists both kinds.
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
//	fetch   ≈ frontierDegreeSum · 8 B
//	offload ≈ estPartialUpdates · 16 B + frontierSize · 16 B (write-back)
//	        ≈ sim.AggregatedUpdateBytes(estPartialUpdates, estDistinct,
//	          buffer) + frontierSize · 16 B, when the switch aggregates
//
// The partial-update estimate is a balls-into-bins collapse against the
// partitioning's *static* full-frontier partial count S (a load-time
// statistic that encodes destination skew): a traversal of d edges
// produces about S·(1-e^(-d/S)) partial updates. When S is unavailable the
// estimate falls back to a uniform-destination model over the vertex set.
// The distinct-destination estimate is one more collapse, uniform over
// the vertex set: P partial updates reach about n·(1-e^(-P/n)) of the n
// destinations. Whether the switch aggregates, and its buffer, are the
// engine's to report (PreStats), so the estimate prices the machine the
// engine runs, with the accountant's function.
type Heuristic struct{}

// Name implements sim.OffloadPolicy.
func (Heuristic) Name() string { return "heuristic" }

// Choose implements sim.OffloadPolicy: one decision for the pool.
func (h Heuristic) Choose(v *sim.View) sim.Choice {
	return sim.Choice{Offload: h.offloads(v.Pool)}
}

// offloads reports whether s's estimated offload bytes undercut fetching
// its frontier's edge lists.
func (h Heuristic) offloads(s sim.PreStats) bool {
	fetch := float64(s.FrontierDegreeSum) * kernels.EdgeBytes
	return h.EstimateOffloadBytes(s) < fetch
}

// EstimateOffloadBytes returns the estimated bytes an offloaded iteration
// would move to and from the compute nodes.
func (Heuristic) EstimateOffloadBytes(s sim.PreStats) float64 {
	partials := estimatePartials(s)
	updates := partials * kernels.UpdateBytes
	if s.SwitchAggregates {
		distinct := partials
		if n := float64(s.NumVertices); n > 0 {
			distinct = n * (1 - math.Exp(-partials/n))
		}
		updates = float64(sim.AggregatedUpdateBytes(int64(math.Round(partials)), int64(math.Round(distinct)), s.SwitchBufferEntries))
	}
	writeback := float64(s.FrontierSize) * kernels.PropertyBytes
	return updates + writeback
}

// estimatePartials predicts the distinct (destination, partition) count.
func estimatePartials(s sim.PreStats) float64 {
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

// ThresholdPolicy offloads when the frontier's average out-degree exceeds
// thresholdPerPartition × Partitions — the simplest degree heuristic the
// paper suggests.
type ThresholdPolicy struct{}

// thresholdPerPartition scales the degree threshold with the pool: with
// 16-byte updates and 8-byte edges, degrees below ~2·Partitions rarely
// amortize the update traffic.
const thresholdPerPartition = 2

// Name implements sim.OffloadPolicy.
func (ThresholdPolicy) Name() string { return "degree-threshold" }

// Choose implements sim.OffloadPolicy.
func (ThresholdPolicy) Choose(v *sim.View) sim.Choice {
	s := v.Pool
	if s.FrontierSize == 0 || s.Partitions <= 0 {
		// An empty frontier has nothing to offload; a degenerate topology
		// has no memory pool to offload to, and the threshold would
		// collapse to 0 ("always offload").
		return sim.Choice{}
	}
	avgDeg := float64(s.FrontierDegreeSum) / float64(s.FrontierSize)
	return sim.Choice{Offload: avgDeg > thresholdPerPartition*float64(s.Partitions)}
}
