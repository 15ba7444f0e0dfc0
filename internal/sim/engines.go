package sim

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/ndp"
)

// Engine is one simulated architecture: Price turns one execution
// (Execute) into that architecture's Run. Price reads the trace and
// writes only the Run, so one execution prices under every architecture,
// concurrently too.
type Engine interface {
	Name() string
	Price(t *Trace) (*Run, error)
}

// Disaggregated models the paper's Figure 1(a): hosts keep vertex data
// locally, the passive memory pool holds the edge-list partitions, and
// every iteration the hosts fetch the frontier's edge lists over the
// interconnect and process all three phases locally.
//
// Movement pattern: ActiveEdges × 8 B per iteration, minus whatever the
// optional host-side edge cache absorbs. Synchronization only among the
// (few) compute nodes.
//
// It is the one engine that prices a trace executed with a host-local
// edge cache (ExecConfig.CacheBytes, FAM-Graph-style data tiering): the
// cached edge lists' traversals cost no interconnect bytes.
type Disaggregated struct {
	Topo Topology
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

// Price implements Engine.
func (d *Disaggregated) Price(t *Trace) (*Run, error) {
	if err := t.check(d.Topo, true); err != nil {
		return nil, err
	}
	tr := t.tr
	run := (&pricing{
		engine:  d.Name(),
		policy:  NeverOffload{},
		account: func(rec *Record, _ bool) { d.Topo.hostFetch(rec, tr) },
	}).run(t)
	run.OffloadSupported = true
	return run, nil
}

// hostFetch prices an iteration in which the hosts fetch the frontier's
// edge lists over the interconnect and run all three phases locally.
// Edges served from the hosts' edge cache skip the pool read and the
// interconnect, but the hosts still stream and process them.
func (t Topology) hostFetch(rec *Record, tr kernels.Traits) {
	moved := rec.EdgeFetchBytes - rec.CachedEdgeBytes
	edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
	applyOps := float64(rec.Applies) * tr.FLOPsPerApply
	rec.DataMovementBytes = moved
	rec.SyncEvents = int64(t.ComputeNodes)
	rec.EstimatedSeconds = linkTime(moved/int64(t.ComputeNodes)) +
		t.hostTraverseTime(rec.EdgeFetchBytes) +
		t.hostComputeTime(edgeOps+applyOps) +
		networkLatency.Seconds()
	rec.EnergyJoules = hostExecutionEnergy(moved, edgeOps+applyOps) +
		pico(float64(rec.CachedEdgeBytes)*hostDRAMPJPerByte)
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
	Topo Topology
	// Policy decides offload per iteration; nil = AlwaysOffload.
	Policy OffloadPolicy
	// InNetworkAggregation enables switch aggregation of partial updates.
	InNetworkAggregation bool
}

// Name implements Engine.
func (d *DisaggregatedNDP) Name() string {
	if d.InNetworkAggregation {
		return "disaggregated-ndp+inc"
	}
	return "disaggregated-ndp"
}

// Price implements Engine.
func (d *DisaggregatedNDP) Price(t *Trace) (*Run, error) {
	if err := t.check(d.Topo, false); err != nil {
		return nil, err
	}
	tr := t.tr

	// Per-memory-node device support: a heterogeneous pool may host the
	// kernel on some nodes and not others, in which case pricing gates
	// each node's choice by its device and drops to per-node accounting.
	P := d.Topo.MemoryNodes
	supported := make([]bool, P)
	supportedCount := 0
	maxPenalty := 1.0
	firstReason := ""
	for p := 0; p < P; p++ {
		pdev := d.Topo.DeviceFor(p)
		pd := pdev.Supports(t.kernel, tr)
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
	dec := ndp.OffloadDecision{OK: supportedCount == P, Reason: firstReason}
	heterogeneous := supportedCount > 0 && supportedCount < P

	policy := d.Policy
	if policy == nil {
		policy = AlwaysOffload{}
	}
	if supportedCount == 0 {
		// No device can run the kernel near data: every iteration fetches.
		policy = NeverOffload{}
	}
	pr := &pricing{
		engine:           d.Name(),
		policy:           policy,
		switchAggregates: d.InNetworkAggregation && !heterogeneous,
		switchBuffer:     d.Topo.SwitchBufferEntries,
	}
	if heterogeneous {
		pr.gate = supported
	}
	pr.account = func(rec *Record, perNode bool) {
		rec.AggregatedMoveBytes = AggregatedUpdateBytes(rec.PartialUpdates, rec.DistinctDsts, d.Topo.SwitchBufferEntries)
		if !rec.Offloaded {
			// No memory node offloaded: the passive disaggregated pattern.
			d.Topo.hostFetch(rec, tr)
			return
		}
		applyOps := float64(rec.Applies) * tr.FLOPsPerApply
		edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
		if perNode {
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
			// A frontier of out-degree-0 vertices can offload with no
			// edges at all; the guard keeps frac from being 0/0.
			frac := 0.0
			if rec.EdgeFetchBytes > 0 {
				frac = float64(offloadedEdges) / float64(rec.EdgeFetchBytes)
			}
			rec.EnergyJoules = ndpExecutionEnergy(offloadedEdges, offloadMoved, edgeOps*frac, maxPenalty, 0, 0) +
				hostExecutionEnergy(fetchMoved, edgeOps*(1-frac)+applyOps)
		} else {
			switchOps := 0.0
			if d.InNetworkAggregation {
				switchOps = float64(rec.PartialUpdates)
			}
			rec.DataMovementBytes = pr.offloadMoveBytes(rec)
			rec.EnergyJoules = ndpExecutionEnergy(rec.EdgeFetchBytes, rec.DataMovementBytes, edgeOps, maxPenalty, applyOps, switchOps)
		}
		rec.SyncEvents = int64(d.Topo.ComputeNodes + d.Topo.MemoryNodes)
		rec.EstimatedSeconds = d.Topo.memTraverseTime(rec.maxPartBytes, rec.maxPartOps, maxPenalty) +
			linkTime(rec.DataMovementBytes/int64(d.Topo.ComputeNodes)) +
			d.Topo.hostComputeTime(applyOps) +
			networkLatency.Seconds()
	}
	run := pr.run(t)
	run.OffloadSupported = dec.OK
	run.OffloadNote = dec.Reason
	if heterogeneous {
		run.OffloadNote = fmt.Sprintf("heterogeneous pool: %d/%d memory nodes can run %s near data (%s)",
			supportedCount, P, t.kernel, firstReason)
	}
	return run, nil
}

// Distributed models Gluon-style execution (the paper's Figure 2): the
// graph is partitioned across general-purpose servers; each server
// traverses its local partition, mirrors reduce partial updates to
// masters, and masters broadcast refreshed values back to mirrors. Every
// server participates in both synchronization phases.
type Distributed struct {
	Topo Topology
}

// Name implements Engine.
func (d *Distributed) Name() string { return "distributed" }

// Price implements Engine.
func (d *Distributed) Price(t *Trace) (*Run, error) {
	return priceDistributed(t, d.Topo, d.Name(), false)
}

// DistributedNDP models GraphQ-style PIM clusters: the same partitioning
// and inter-node movement as Distributed, but each server's traversal runs
// on near-memory processing units (memory-capacity-proportional
// bandwidth), and communication is partially overlapped with computation
// (GraphQ's hybrid execution model). Inter-node data movement is
// unchanged — the paper's central criticism of this class (Section III-B).
type DistributedNDP struct {
	Topo Topology
}

// Name implements Engine.
func (d *DistributedNDP) Name() string { return "distributed-ndp" }

// Price implements Engine.
func (d *DistributedNDP) Price(t *Trace) (*Run, error) {
	return priceDistributed(t, d.Topo, d.Name(), true)
}

// ndpOverlapFraction is the share of a near-memory traversal's time that
// hides communication behind it (GraphQ's hybrid execution model).
const ndpOverlapFraction = 0.7

// priceDistributed is the shared pricing of the two distributed engines;
// ndpMode selects near-memory traversal and overlap.
func priceDistributed(t *Trace, topo Topology, name string, ndpMode bool) (*Run, error) {
	if err := t.check(topo, false); err != nil {
		return nil, err
	}
	tr := t.tr
	servers := topo.MemoryNodes // in distributed mode every node is a full server
	dec := topo.MemDevice.Supports(t.kernel, tr)
	// Near-memory servers run every traversal where the device can.
	policy := OffloadPolicy(NeverOffload{})
	if ndpMode && dec.OK {
		policy = AlwaysOffload{}
	}
	account := func(rec *Record, _ bool) {
		rec.DataMovementBytes = rec.MirrorReduceBytes + rec.MirrorBroadcastBytes
		rec.SyncEvents = 2 * int64(servers)
		applyOps := float64(rec.Applies) * tr.FLOPsPerApply
		edgeOps := float64(rec.ActiveEdges) * tr.FLOPsPerEdge
		var traverse float64
		if rec.Offloaded {
			traverse = topo.memTraverseTime(rec.maxPartBytes, rec.maxPartOps, dec.Penalty)
		} else {
			// Straggler server streams its partition from host memory.
			traverse = float64(rec.maxPartBytes)/(hostMemBWGBps*1e9) + rec.maxPartOps/(HostGFlops*1e9)
		}
		comm := float64(rec.DataMovementBytes)/(networkGBps*1e9*float64(servers)) + 2*networkLatency.Seconds()
		if rec.Offloaded {
			hidden := ndpOverlapFraction * traverse
			if hidden > comm {
				comm = 0
			} else {
				comm -= hidden
			}
		}
		apply := applyOps / (HostGFlops * 1e9 * float64(servers))
		rec.EstimatedSeconds = traverse + comm + apply
		if rec.Offloaded {
			// Near-memory units stream and process edges inside each
			// server; only mirror traffic crosses the network.
			rec.EnergyJoules = ndpExecutionEnergy(rec.EdgeFetchBytes, rec.DataMovementBytes, edgeOps, dec.Penalty, applyOps, 0)
		} else {
			// Edges are server-local (no link crossing): host DRAM stream
			// plus host arithmetic plus mirror traffic on the wire.
			rec.EnergyJoules = pico(float64(rec.EdgeFetchBytes)*hostDRAMPJPerByte +
				float64(rec.DataMovementBytes)*(linkEnergyPJPerByte+hostDRAMPJPerByte) +
				(edgeOps+applyOps)*hostPJPerOp)
		}
	}
	run := (&pricing{engine: name, policy: policy, mirrors: true, account: account}).run(t)
	run.OffloadSupported = !ndpMode || dec.OK
	run.OffloadNote = dec.Reason
	return run, nil
}
