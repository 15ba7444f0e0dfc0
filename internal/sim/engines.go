package sim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
)

// Engine runs a kernel on a simulated architecture.
type Engine interface {
	Name() string
	Run(g *graph.Graph, k kernels.Kernel) (*Run, error)
}

// ContextEngine is an Engine whose runs honor cancellation: the
// iteration loop checks the context between iterations and returns
// ctx.Err() on cancellation or deadline, so a long sweep aborts within
// one iteration's work. All four simulated architectures implement it.
type ContextEngine interface {
	Engine
	RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel) (*Run, error)
}

// checkEngineInputs validates the pieces shared by all engines.
func checkEngineInputs(topo Topology, assign *partition.Assignment, g *graph.Graph) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if assign == nil {
		return fmt.Errorf("sim: nil partition assignment")
	}
	if assign.K != topo.MemoryNodes {
		return fmt.Errorf("sim: assignment has %d parts, topology has %d memory nodes", assign.K, topo.MemoryNodes)
	}
	return nil
}

// Disaggregated models the paper's Figure 1(a): hosts keep vertex data
// locally, the passive memory pool holds the edge-list partitions, and
// every iteration the hosts fetch the frontier's edge lists over the
// interconnect and process all three phases locally.
//
// Movement pattern: ActiveEdges × 8 B per iteration, minus whatever the
// optional host-side edge cache absorbs. Synchronization only among the
// (few) compute nodes.
type Disaggregated struct {
	Topo   Topology
	Assign *partition.Assignment
	// CacheBytes sizes a host-local edge cache (FAM-Graph-style data
	// tiering): the highest-out-degree vertices' edge lists are pinned on
	// the hosts, greedily by degree until the budget is exhausted, and
	// their traversals cost no interconnect bytes. 0 disables the cache.
	CacheBytes int64
	// Tier, when non-nil, replaces the per-edge fetch accounting with a
	// segment-granular memory tier (internal/store's model): edge lists
	// are fetched in whole SegmentBytes-sized segments, the hosts keep
	// LocalBytes of them resident, evicting in sweep order, and the
	// interconnect traffic is Record.FarMemoryBytes — the misses'
	// segment bytes.
	// Tier supersedes CacheBytes for movement accounting (the pinned
	// cache marks vertices, the tier tracks segments; configure one).
	Tier *TierConfig
	// Workers caps the simulator's worker pool (0 = GOMAXPROCS). Results
	// are bit-identical for every setting.
	Workers int
}

// Name implements Engine.
func (d *Disaggregated) Name() string { return "disaggregated" }

// cacheMask pins the hottest (highest out-degree) vertices' edge lists
// into the byte budget.
func cacheMask(g *graph.Graph, budget int64) []bool {
	if budget <= 0 {
		return nil
	}
	n := g.NumVertices()
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	// Stable selection: sort by degree descending, id ascending.
	sortByDegreeDesc(g, order)
	mask := make([]bool, n)
	var used int64
	for _, v := range order {
		cost := g.OutDegree(v) * kernels.EdgeBytes
		if cost == 0 || used+cost > budget {
			continue
		}
		mask[v] = true
		used += cost
	}
	return mask
}

// Run implements Engine.
func (d *Disaggregated) Run(g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return d.RunContext(context.Background(), g, k)
}

// RunContext implements ContextEngine.
func (d *Disaggregated) RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel) (*Run, error) {
	if err := checkEngineInputs(d.Topo, d.Assign, g); err != nil {
		return nil, err
	}
	tr := k.Traits()
	account := func(rec *Record) {
		rec.Offloaded = false
		moved := rec.EdgeFetchBytes - rec.CachedEdgeBytes
		if d.Tier != nil {
			moved = rec.FarMemoryBytes
		}
		rec.DataMovementBytes = moved
		rec.SyncEvents = int64(d.Topo.ComputeNodes)
		edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
		applyOps := float64(rec.Applies) * tr.FLOPsPerApply
		rec.EstimatedSeconds = d.Topo.linkTime(moved/int64(d.Topo.ComputeNodes)) +
			d.Topo.hostTraverseTime(rec.EdgeFetchBytes) +
			d.Topo.hostComputeTime(edgeOps+applyOps) +
			d.Topo.NetworkLatency.Seconds()
		// Cached edges skip the pool read and the interconnect, but the
		// host still streams and processes them.
		rec.EnergyJoules = d.Topo.hostExecutionEnergy(moved, edgeOps+applyOps) +
			pico(float64(rec.CachedEdgeBytes)*d.Topo.HostDRAMPJPerByte)
	}
	ex, err := newExecution(g, k, d.Assign, account, NeverOffload{})
	if err != nil {
		return nil, err
	}
	ex.computeStatics(false, false)
	ex.workers = d.Workers
	ex.cached = cacheMask(g, d.CacheBytes)
	if d.Tier != nil {
		ex.tier = newTierState(g, *d.Tier)
	}
	run, err := ex.run(ctx, d.Name())
	if err != nil {
		return nil, err
	}
	run.OffloadSupported = true
	return run, nil
}

// sortByDegreeDesc sorts vertex ids by out-degree descending, breaking
// ties by ascending id for determinism.
func sortByDegreeDesc(g *graph.Graph, order []graph.VertexID) {
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.OutDegree(order[i]), g.OutDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
}

// DisaggregatedNDP models the paper's Figure 1(b): NDP units on the memory
// nodes execute the traversal over their local edge partitions and ship
// per-destination partial updates to the hosts; hosts run the update phase
// and write refreshed vertex properties back to the pool. Optionally, the
// in-network element aggregates partial updates for the same destination
// in flight (Section IV-C).
type DisaggregatedNDP struct {
	Topo   Topology
	Assign *partition.Assignment
	// Policy decides offload per iteration; nil = AlwaysOffload.
	Policy OffloadPolicy
	// InNetworkAggregation enables switch aggregation of partial updates.
	InNetworkAggregation bool
	// Workers caps the simulator's worker pool (0 = GOMAXPROCS). Results
	// are bit-identical for every setting.
	Workers int
}

// Name implements Engine.
func (d *DisaggregatedNDP) Name() string {
	if d.InNetworkAggregation {
		return "disaggregated-ndp+inc"
	}
	return "disaggregated-ndp"
}

// Run implements Engine.
func (d *DisaggregatedNDP) Run(g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return d.RunContext(context.Background(), g, k)
}

// RunContext implements ContextEngine.
func (d *DisaggregatedNDP) RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel) (*Run, error) {
	if err := checkEngineInputs(d.Topo, d.Assign, g); err != nil {
		return nil, err
	}
	tr := k.Traits()

	// Per-memory-node device support: a heterogeneous pool may host the
	// kernel on some nodes and not others, in which case accounting drops
	// to per-partition granularity automatically.
	P := d.Topo.MemoryNodes
	supported := make([]bool, P)
	supportedCount := 0
	maxPenalty := 1.0
	firstReason := ""
	for p := 0; p < P; p++ {
		pdev := d.Topo.DeviceFor(p)
		pd := pdev.Supports(k)
		supported[p] = pd.OK
		if pd.OK {
			supportedCount++
			if pd.Penalty > maxPenalty {
				maxPenalty = pd.Penalty
			}
		} else if firstReason == "" {
			firstReason = pd.Reason
		}
	}
	dec := ndp.OffloadDecision{OK: supportedCount == P, Penalty: maxPenalty, Reason: firstReason}
	heterogeneous := supportedCount > 0 && supportedCount < P

	aggOK := true
	if d.InNetworkAggregation && !d.Topo.SwitchDevice.CanAggregate(tr.Agg) {
		aggOK = false
	}
	policy := d.Policy
	if policy == nil {
		policy = AlwaysOffload{}
	}
	_, perPartition := policy.(PartitionPolicy)
	if _, ok := policy.(PartitionPostHocPolicy); ok {
		perPartition = true
	}
	perPartition = perPartition || heterogeneous
	account := func(rec *Record) {
		if supportedCount == 0 {
			// No device can run the kernel near data: force host fetch.
			rec.Offloaded = false
			for p := range rec.PerPartition {
				rec.PerPartition[p].Offloaded = false
			}
		} else if heterogeneous {
			// Gate each partition's decision by its device.
			any := false
			for p := range rec.PerPartition {
				rec.PerPartition[p].Offloaded = rec.PerPartition[p].Offloaded && supported[p]
				any = any || rec.PerPartition[p].Offloaded
			}
			rec.Offloaded = any
		}
		rec.AggregatedMoveBytes = aggregatedMoveBytes(rec, d.Topo.SwitchBufferEntries)
		applyOps := float64(rec.Applies) * tr.FLOPsPerApply
		edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
		if perPartition && supportedCount > 0 {
			// Mixed mode: each memory node follows its own decision.
			// In-network aggregation is not modeled here — only the
			// offloaded nodes emit updates, and the switch sees a partial
			// stream (per-partition mode therefore ignores INC).
			rec.DataMovementBytes = rec.MixedMoveBytes()
			var offloadedEdges, offloadMoved, fetchMoved int64
			for _, p := range rec.PerPartition {
				if p.Offloaded {
					offloadedEdges += p.EdgeBytes
					offloadMoved += p.OffloadCost()
				} else {
					fetchMoved += p.EdgeBytes
				}
			}
			frac := 0.0
			if rec.EdgeFetchBytes > 0 {
				frac = float64(offloadedEdges) / float64(rec.EdgeFetchBytes)
			}
			rec.EnergyJoules = d.Topo.ndpExecutionEnergy(offloadedEdges, offloadMoved, edgeOps*frac, maxPenalty, 0, 0) +
				d.Topo.hostExecutionEnergy(fetchMoved, edgeOps*(1-frac)+applyOps)
			if rec.Offloaded {
				rec.SyncEvents = int64(d.Topo.ComputeNodes + d.Topo.MemoryNodes)
				rec.EstimatedSeconds = d.Topo.memTraverseTime(rec.maxPartBytes, rec.maxPartOps, maxPenalty) +
					d.Topo.linkTime(rec.DataMovementBytes/int64(d.Topo.ComputeNodes)) +
					d.Topo.hostComputeTime(applyOps) +
					d.Topo.NetworkLatency.Seconds()
			} else {
				rec.SyncEvents = int64(d.Topo.ComputeNodes)
				rec.EstimatedSeconds = d.Topo.linkTime(rec.DataMovementBytes/int64(d.Topo.ComputeNodes)) +
					d.Topo.hostTraverseTime(rec.DataMovementBytes) +
					d.Topo.hostComputeTime(edgeOps+applyOps) +
					d.Topo.NetworkLatency.Seconds()
			}
			return
		}
		if rec.Offloaded {
			moved := rec.UpdateMoveBytes
			switchOps := 0.0
			if d.InNetworkAggregation && aggOK {
				moved = rec.AggregatedMoveBytes
				switchOps = float64(rec.PartialUpdates)
			}
			rec.DataMovementBytes = moved + rec.WritebackBytes
			rec.SyncEvents = int64(d.Topo.ComputeNodes + d.Topo.MemoryNodes)
			rec.EstimatedSeconds = d.Topo.memTraverseTime(rec.maxPartBytes, rec.maxPartOps, dec.Penalty) +
				d.Topo.linkTime(rec.DataMovementBytes/int64(d.Topo.ComputeNodes)) +
				d.Topo.hostComputeTime(applyOps) +
				d.Topo.NetworkLatency.Seconds()
			rec.EnergyJoules = d.Topo.ndpExecutionEnergy(rec.EdgeFetchBytes, rec.DataMovementBytes, edgeOps, dec.Penalty, applyOps, switchOps)
			return
		}
		// Fallback: behave like the passive disaggregated architecture.
		rec.DataMovementBytes = rec.EdgeFetchBytes
		rec.SyncEvents = int64(d.Topo.ComputeNodes)
		rec.EstimatedSeconds = d.Topo.linkTime(rec.EdgeFetchBytes/int64(d.Topo.ComputeNodes)) +
			d.Topo.hostTraverseTime(rec.EdgeFetchBytes) +
			d.Topo.hostComputeTime(edgeOps+applyOps) +
			d.Topo.NetworkLatency.Seconds()
		rec.EnergyJoules = d.Topo.hostExecutionEnergy(rec.EdgeFetchBytes, edgeOps+applyOps)
	}
	ex, err := newExecution(g, k, d.Assign, account, policy)
	if err != nil {
		return nil, err
	}
	ex.computeStatics(true, false)
	ex.workers = d.Workers
	run, err := ex.run(ctx, d.Name())
	if err != nil {
		return nil, err
	}
	run.OffloadSupported = dec.OK
	run.OffloadNote = dec.Reason
	if heterogeneous {
		run.OffloadNote = fmt.Sprintf("heterogeneous pool: %d/%d memory nodes can run %s near data (%s)",
			supportedCount, P, k.Name(), firstReason)
	}
	if d.InNetworkAggregation && !aggOK {
		run.OffloadNote = fmt.Sprintf("switch %s cannot aggregate %s", d.Topo.SwitchDevice.Name, tr.Agg)
	}
	return run, nil
}

// Distributed models Gluon-style execution (the paper's Figure 2): the
// graph is partitioned across general-purpose servers; each server
// traverses its local partition, mirrors reduce partial updates to
// masters, and masters broadcast refreshed values back to mirrors. Every
// server participates in both synchronization phases.
type Distributed struct {
	Topo   Topology
	Assign *partition.Assignment
	// Workers caps the simulator's worker pool (0 = GOMAXPROCS). Results
	// are bit-identical for every setting.
	Workers int
}

// Name implements Engine.
func (d *Distributed) Name() string { return "distributed" }

// Run implements Engine.
func (d *Distributed) Run(g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return d.RunContext(context.Background(), g, k)
}

// RunContext implements ContextEngine.
func (d *Distributed) RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return runDistributed(ctx, d.Topo, d.Assign, g, k, d.Name(), false, d.Workers)
}

// DistributedNDP models GraphQ-style PIM clusters: the same partitioning
// and inter-node movement as Distributed, but each server's traversal runs
// on near-memory processing units (memory-capacity-proportional
// bandwidth), and communication is partially overlapped with computation
// (GraphQ's hybrid execution model). Inter-node data movement is
// unchanged — the paper's central criticism of this class (Section III-B).
type DistributedNDP struct {
	Topo   Topology
	Assign *partition.Assignment
	// Workers caps the simulator's worker pool (0 = GOMAXPROCS). Results
	// are bit-identical for every setting.
	Workers int
}

// Name implements Engine.
func (d *DistributedNDP) Name() string { return "distributed-ndp" }

// Run implements Engine.
func (d *DistributedNDP) Run(g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return d.RunContext(context.Background(), g, k)
}

// RunContext implements ContextEngine.
func (d *DistributedNDP) RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel) (*Run, error) {
	return runDistributed(ctx, d.Topo, d.Assign, g, k, d.Name(), true, d.Workers)
}

// ndpOverlapFraction is the share of a near-memory traversal's time that
// hides communication behind it (GraphQ's hybrid execution model).
const ndpOverlapFraction = 0.7

// runDistributed is the shared implementation of the two distributed
// engines; ndpMode selects near-memory traversal and overlap.
func runDistributed(ctx context.Context, topo Topology, assign *partition.Assignment, g *graph.Graph, k kernels.Kernel, name string, ndpMode bool, workers int) (*Run, error) {
	if err := checkEngineInputs(topo, assign, g); err != nil {
		return nil, err
	}
	tr := k.Traits()
	servers := topo.MemoryNodes // in distributed mode every node is a full server
	dec := topo.MemDevice.Supports(k)
	account := func(rec *Record) {
		rec.Offloaded = ndpMode && dec.OK
		rec.DataMovementBytes = rec.MirrorReduceBytes + rec.MirrorBroadcastBytes
		rec.SyncEvents = 2 * int64(servers)
		applyOps := float64(rec.Applies) * tr.FLOPsPerApply
		edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
		var traverse float64
		if rec.Offloaded {
			traverse = topo.memTraverseTime(rec.maxPartBytes, rec.maxPartOps, dec.Penalty)
		} else {
			// Straggler server streams its partition from host memory.
			traverse = float64(rec.maxPartBytes)/(topo.HostMemBWGBps*1e9) + rec.maxPartOps/(topo.HostGFlops*1e9)
		}
		comm := float64(rec.DataMovementBytes)/(topo.NetworkGBps*1e9*float64(servers)) + 2*topo.NetworkLatency.Seconds()
		if rec.Offloaded {
			hidden := ndpOverlapFraction * traverse
			if hidden > comm {
				comm = 0
			} else {
				comm -= hidden
			}
		}
		apply := applyOps / (topo.HostGFlops * 1e9 * float64(servers))
		rec.EstimatedSeconds = traverse + comm + apply
		if rec.Offloaded {
			// Near-memory units stream and process edges inside each
			// server; only mirror traffic crosses the network.
			rec.EnergyJoules = topo.ndpExecutionEnergy(rec.EdgeFetchBytes, rec.DataMovementBytes, edgeOps, dec.Penalty, applyOps, 0)
		} else {
			// Edges are server-local (no link crossing): host DRAM stream
			// plus host arithmetic plus mirror traffic on the wire.
			rec.EnergyJoules = pico(float64(rec.EdgeFetchBytes)*topo.HostDRAMPJPerByte +
				float64(rec.DataMovementBytes)*(topo.LinkEnergyPJPerByte+topo.HostDRAMPJPerByte) +
				(edgeOps+applyOps)*topo.HostPJPerOp)
		}
	}
	ex, err := newExecution(g, k, assign, account, NeverOffload{})
	if err != nil {
		return nil, err
	}
	ex.computeStatics(false, true)
	ex.workers = workers
	run, err := ex.run(ctx, name)
	if err != nil {
		return nil, err
	}
	run.OffloadSupported = !ndpMode || dec.OK
	run.OffloadNote = dec.Reason
	return run, nil
}
