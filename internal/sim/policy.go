package sim

// PreStats is what an offload policy may observe before an iteration runs:
// the pending frontier's size and degree sum, the graph's and the memory
// pool's sizes, a load-time skew statistic and what the engine's switch
// does with partial updates. Everything here is cheaply available to a
// real runtime (the frontier is known, and degree sums are prefix-sum
// lookups), which is the paper's point in Section IV-D — these are the
// heuristic inputs.
type PreStats struct {
	// FrontierSize and FrontierDegreeSum describe the pending traversal.
	FrontierSize      int64
	FrontierDegreeSum int64
	// Partitions is the memory-pool width.
	Partitions int
	// NumVertices is the graph's vertex count.
	NumVertices int
	// StaticPartialUpdates is the distinct (destination, partition) count
	// for a full-graph traversal — a load-time statistic that captures
	// destination skew, which per-iteration heuristics scale down by the
	// frontier's traversal volume.
	StaticPartialUpdates int64
	// SwitchAggregates reports that the engine's switch aggregates this
	// kernel's partial updates in flight, so an offloaded iteration is
	// charged AggregatedUpdateBytes; SwitchBufferEntries is that switch's
	// buffer (0 = unlimited).
	SwitchAggregates    bool
	SwitchBufferEntries int64
}

// OffloadPolicy chooses, for each iteration, whether the traversal runs
// on the memory nodes' NDP units or the hosts fetch the frontier's edge
// lists — for the whole pool or node by node (Choice).
type OffloadPolicy interface {
	Name() string
	Choose(v *View) Choice
}

// View is one iteration as a policy sees it: the pool-wide PreStats and,
// on demand, each memory node's own. The iteration's realised costs are
// unexported, so only this package's oracles (Oracle, MixedOracle) read
// them; a policy outside it decides from pre-traversal metadata alone. A
// View is valid only during the Choose call it is passed to.
type View struct {
	// Pool is the whole memory pool's view.
	Pool PreStats

	t     *Trace
	nodes []nodeTrace // the iteration's, one a memory node
	rec   *Record     // the iteration's counters and prices
	pr    *pricing
}

// Node is memory node p's view as a one-partition PreStats: its share of
// the frontier and its static partial count, with no switch, since a
// per-node Choice is priced without aggregation. Only the Views the
// simulator passes a policy have nodes.
func (v *View) Node(p int) PreStats {
	s := v.Pool
	s.FrontierSize, s.FrontierDegreeSum = v.nodes[p].frontier, v.nodes[p].degSum
	s.Partitions = 1
	s.StaticPartialUpdates = v.t.staticPerPart[p]
	s.SwitchAggregates, s.SwitchBufferEntries = false, 0
	return s
}

// Choice is a policy's decision for one iteration. With Nodes nil it is
// one decision for the whole pool: Offload runs the traversal on every
// memory node's NDP unit, with in-network aggregation where the engine
// has it, and !Offload fetches the frontier's edge lists to the hosts. A
// non-nil Nodes decides node by node (Nodes[p] offloads memory node p; a
// node past its end fetches) and is priced per node, without
// aggregation; Offload is then unused.
type Choice struct {
	Offload bool
	Nodes   []bool
}

// AlwaysOffload offloads every iteration.
type AlwaysOffload struct{}

// Name implements OffloadPolicy.
func (AlwaysOffload) Name() string { return "always" }

// Choose implements OffloadPolicy.
func (AlwaysOffload) Choose(*View) Choice { return Choice{Offload: true} }

// NeverOffload never offloads (pure far-memory execution).
type NeverOffload struct{}

// Name implements OffloadPolicy.
func (NeverOffload) Name() string { return "never" }

// Choose implements OffloadPolicy.
func (NeverOffload) Choose(*View) Choice { return Choice{} }

// Oracle picks, with the iteration's costs both known, whichever of fetch
// and offload moves fewer bytes. It is the per-iteration lower bound among
// the two mechanisms and the yardstick dynamic policies are judged against
// (the paper's Figure 7 discussion).
type Oracle struct{}

// Name implements OffloadPolicy.
func (Oracle) Name() string { return "oracle" }

// Choose implements OffloadPolicy.
func (Oracle) Choose(v *View) Choice {
	return Choice{Offload: v.pr.offloadMoveBytes(v.rec) < v.rec.EdgeFetchBytes}
}

// MixedOracle lets every memory node pick, with its costs known, the
// cheaper of shipping its edge lists or its partial updates. It is the
// per-node lower bound — at or below Oracle, whose one decision forces
// every node to agree. The gap between the two is the value of the
// "where to offload" control Section IV argues frameworks must expose.
type MixedOracle struct{}

// Name implements OffloadPolicy.
func (MixedOracle) Name() string { return "mixed-oracle" }

// Choose implements OffloadPolicy.
func (MixedOracle) Choose(v *View) Choice {
	mask := make([]bool, len(v.rec.PerPartition))
	for p, node := range v.rec.PerPartition {
		mask[p] = node.OffloadCost() < node.EdgeBytes
	}
	return Choice{Nodes: mask}
}
