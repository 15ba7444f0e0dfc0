package sim

import "repro/internal/kernels"

// Record captures one iteration's measured quantities. The raw counters
// (frontier, edges, partial updates) are architecture-independent; the
// byte and time fields are filled in by the engine according to its
// architecture's movement pattern.
type Record struct {
	Iteration int

	// FrontierSize is the number of active vertices entering the
	// iteration; ActiveEdges is their total out-degree (traversal volume).
	FrontierSize int64
	ActiveEdges  int64
	// NextFrontierSize is the number of vertices activated for the next
	// iteration (the count of changed vertex properties).
	NextFrontierSize int64
	// CrossEdges counts traversed edges whose source and destination live
	// in different partitions.
	CrossEdges int64
	// PartialUpdates counts distinct (destination, partition) pairs
	// produced by the traversal — the mirror updates each memory node
	// buffers (Section IV's message buffers).
	PartialUpdates int64
	// RemotePartialUpdates counts the subset of PartialUpdates whose
	// partition is not the destination's owner (the mirror→master reduce
	// volume in distributed architectures).
	RemotePartialUpdates int64
	// DistinctDsts counts destinations receiving at least one update —
	// the floor in-network aggregation can compress the update stream to.
	DistinctDsts int64

	// EdgeFetchBytes, UpdateMoveBytes and AggregatedMoveBytes are
	// prices: what the iteration would move under each pattern, filled
	// whether or not the iteration used it (aggregation off, a host-fetch
	// iteration, per-partition mode), so that policies, oracles and
	// checks can compare them. DataMovementBytes is what was charged.
	//
	// EdgeFetchBytes prices moving the frontier's edge lists (the no-NDP
	// disaggregated pattern: ActiveEdges × 8 B).
	EdgeFetchBytes int64
	// CachedEdgeBytes is the subset of EdgeFetchBytes served from the
	// hosts' local edge cache (FAM-Graph-style tiering) — no interconnect
	// crossing.
	CachedEdgeBytes int64
	// UpdateMoveBytes prices moving the partial updates (the NDP
	// pattern: PartialUpdates × 16 B).
	UpdateMoveBytes int64
	// WritebackBytes propagates refreshed vertex properties back to the
	// memory nodes (NextFrontierSize × 16 B) in NDP runs.
	WritebackBytes int64
	// AggregatedMoveBytes prices the switch→compute volume had the
	// switch aggregated the partial updates (≥ DistinctDsts × 16 B,
	// depending on the switch buffer; AggregatedUpdateBytes). The
	// disaggregated NDP engine fills it on every iteration; the other
	// engines leave it 0.
	AggregatedMoveBytes int64
	// MirrorReduceBytes and MirrorBroadcastBytes are the two distributed
	// synchronization volumes (Figure 2's communication patterns).
	MirrorReduceBytes    int64
	MirrorBroadcastBytes int64

	// Applies counts Apply invocations (update-phase work items).
	Applies int64
	// PerPartition holds the per-memory-node breakdown of the iteration,
	// one entry a memory node, under every engine — the paper's "which
	// operations to offload, and where".
	PerPartition []PartitionRecord
	// Offloaded reports whether this iteration ran the traversal on any
	// memory node's NDP unit: exactly when some PerPartition entry is
	// Offloaded.
	Offloaded bool
	// DataMovementBytes is the headline metric: bytes crossing the
	// compute-node boundary this iteration under the engine's
	// architecture and this iteration's offload decision.
	DataMovementBytes int64
	// SyncEvents counts barrier participants this iteration.
	SyncEvents int64
	// EstimatedSeconds is the modeled wall-clock time of the iteration.
	EstimatedSeconds float64
	// EnergyJoules is the modeled energy of the iteration: data movement
	// over the interconnect, DRAM streaming (host or near-data), and
	// arithmetic on whichever units executed each phase.
	EnergyJoules float64

	// Scratch quantities handed to the engine accounting hook: the
	// straggler partition's traversal bytes and arithmetic ops.
	maxPartBytes int64
	maxPartOps   float64
}

// PartitionRecord is one memory node's share of an iteration.
type PartitionRecord struct {
	// EdgeBytes is the cost of shipping this partition's traversed edge
	// lists to the hosts; PartialUpdates the distinct destinations its
	// NDP unit would emit; Activated the next-frontier vertices whose
	// refreshed properties it must receive.
	EdgeBytes      int64
	PartialUpdates int64
	Activated      int64
	// Offloaded reports whether this node ran its share of the traversal
	// near data: the policy's Choice for the node (its own, or the
	// pool's), gated by the node's device.
	Offloaded bool
}

// OffloadCost is the bytes this partition moves when offloaded: its
// partial updates out plus its share of the property write-back in.
func (p PartitionRecord) OffloadCost() int64 {
	return p.PartialUpdates*kernels.UpdateBytes + p.Activated*kernels.PropertyBytes
}

// Run is one architecture's pricing of an execution (Engine.Price).
type Run struct {
	Engine  string
	Kernel  string
	Records []Record
	// Result is the priced trace's own kernel result, shared by every
	// pricing of it: read it, do not write it.
	Result *kernels.Result

	// OffloadSupported reports whether the configured NDP device could
	// execute this kernel near data; when false, OffloadNote explains why
	// and NDP engines fell back to host execution.
	OffloadSupported bool
	OffloadNote      string

	// Totals over all iterations.
	TotalDataMovementBytes int64
	TotalSyncEvents        int64
	TotalSeconds           float64
	TotalEnergyJoules      float64
}

// finalize computes totals from Records.
func (r *Run) finalize() {
	r.TotalDataMovementBytes = 0
	r.TotalSyncEvents = 0
	r.TotalSeconds = 0
	r.TotalEnergyJoules = 0
	for i := range r.Records {
		r.TotalDataMovementBytes += r.Records[i].DataMovementBytes
		r.TotalSyncEvents += r.Records[i].SyncEvents
		r.TotalSeconds += r.Records[i].EstimatedSeconds
		r.TotalEnergyJoules += r.Records[i].EnergyJoules
	}
}
