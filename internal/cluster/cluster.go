// Package cluster is an executable, concurrent implementation of the
// paper's Figure 1(b): the disaggregated NDP architecture as actual
// communicating processes rather than the analytical accounting of
// package sim.
//
// Every node of the architecture is a goroutine, and every link a typed
// channel: memory-node actors hold edge partitions and run the offloaded
// traversal phase; a switch actor forwards — or, with in-network
// aggregation enabled, merges — partial updates in flight; compute-node
// actors own the vertex properties, run the update phase, and write
// refreshed properties back to the pool. A driver coordinates
// bulk-synchronous iterations and collects byte counts from the real
// message traffic.
//
// The package exists for two reasons. First, it demonstrates that the
// protocol the paper sketches actually closes: initial property
// distribution, traversal offload, in-transit aggregation, update
// application, and write-back freshness compose into a terminating
// system that computes exactly what a serial engine computes. Second, it
// cross-validates the simulator: the bytes this implementation actually
// sends must equal the bytes sim.DisaggregatedNDP accounts analytically
// (tests enforce this), so the numbers behind the paper's figures are
// backed by two independent implementations.
package cluster

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// Update is one vertex update in flight: the paper's 16-byte unit (8-byte
// vertex id + 8-byte value).
type Update struct {
	Vertex graph.VertexID
	Value  float64
}

// UpdateBytes is the wire size of an Update.
const UpdateBytes = kernels.UpdateBytes

// Config shapes the cluster. The zero value is valid: defaults are
// filled by Run, and the zero FaultPlan injects nothing.
type Config struct {
	// ComputeNodes is the number of compute actors (vertex properties are
	// hash-partitioned across them). Default 2.
	ComputeNodes int
	// Aggregate enables in-network aggregation at the switch actors.
	Aggregate bool
	// TreeFanIn, when >= 2, replaces the single switch with a SHARP-style
	// hierarchical reduction tree: memory nodes attach to leaf switches
	// in groups of TreeFanIn, leaf switches to parents likewise, up to a
	// single root that delivers to the compute nodes. Each level merges
	// updates for the same destination before forwarding (when Aggregate
	// is set). 0 or 1 selects the flat single-switch topology.
	TreeFanIn int
	// ChannelDepth is the buffering on every link. Default 64.
	ChannelDepth int
	// Fault is the seeded fault-injection schedule. The zero value
	// injects nothing; the sequence/ack protocol runs either way.
	Fault FaultPlan
}

// Validate rejects configurations that withDefaults would otherwise
// paper over: negative knob values and malformed fault plans. Both the
// cluster driver (Run) and core.New call it, so nonsense surfaces at
// configuration time rather than as a hung or skewed run.
func (c Config) Validate() error {
	if c.ComputeNodes < 0 {
		return fmt.Errorf("cluster: negative ComputeNodes %d", c.ComputeNodes)
	}
	if c.TreeFanIn < 0 {
		return fmt.Errorf("cluster: negative TreeFanIn %d (use 0 for the flat topology, >= 2 for a tree)", c.TreeFanIn)
	}
	if c.ChannelDepth < 0 {
		return fmt.Errorf("cluster: negative ChannelDepth %d", c.ChannelDepth)
	}
	return c.Fault.Validate()
}

func (c Config) withDefaults() Config {
	if c.ComputeNodes <= 0 {
		c.ComputeNodes = 2
	}
	if c.ChannelDepth <= 0 {
		c.ChannelDepth = 64
	}
	return c
}

// Traffic tallies the bytes each link class actually carried.
type Traffic struct {
	// MemToSwitch is partial-update traffic from the memory pool.
	MemToSwitch int64
	// SwitchToCompute is the (possibly aggregated) update traffic
	// delivered to the hosts.
	SwitchToCompute int64
	// Writeback is refreshed-property traffic from hosts to the pool.
	Writeback int64
}

// Total returns the bytes crossing the compute boundary (to compare with
// sim's headline DataMovementBytes): updates in plus write-backs out.
func (t Traffic) Total() int64 { return t.SwitchToCompute + t.Writeback }

// Outcome is the result of a cluster run.
type Outcome struct {
	Values     []float64
	Iterations int
	Converged  bool
	// PerIteration holds the measured traffic of each iteration.
	PerIteration []Traffic
	// Totals.
	Traffic Traffic
	// LevelBytes[l] is the total bytes leaving switch level l of the
	// aggregation tree (level 0 = leaf switches; the last level is the
	// root's delivery to the compute nodes). For the flat topology it has
	// one entry, equal to Traffic.SwitchToCompute.
	LevelBytes []int64
	// LevelBytesIn[l] is the total bytes *entering* switch level l,
	// counted at the receiver per delivered copy. Together with
	// LevelBytes it makes flow conservation checkable link class by link
	// class: LevelBytesIn[0] equals the memory pool's sent bytes
	// (CounterMemSentBytes), LevelBytesIn[l+1] equals LevelBytes[l], and
	// the last level's LevelBytes equals the compute nodes' received
	// bytes (CounterComputeRecvBytes) — faults included, because both
	// ends count delivered copies, never attempts.
	LevelBytesIn []int64
	// Faults summarizes injected faults and recovery work. Acknowledged
	// deliveries (Acks) are nonzero on every run; the fault and recovery
	// counters are zero unless the Config carried a non-empty FaultPlan.
	Faults FaultStats
	// Counters is the run's full metrics snapshot (sorted by name), the
	// same numbers Faults summarizes plus any future instrumentation.
	Counters []metrics.CounterValue
}

// Conservation counter names: bytes counted at the *other* end of each
// link class from the Traffic tallies, so sent-equals-received becomes a
// checkable invariant. CounterMemSentBytes is counted at the memory-node
// senders (Traffic.MemToSwitch is the leaf switches' receive count),
// CounterComputeRecvBytes at the compute-node receivers
// (Traffic.SwitchToCompute is the root's send count), and
// CounterWritebackRecvBytes at the memory-node write-back receivers
// (Traffic.Writeback is the compute-node send count). All three count
// per delivered copy — duplicates included, dropped attempts excluded —
// matching the Traffic accounting exactly, faults or none.
const (
	CounterMemSentBytes       = "cluster.link.update.mem_sent_bytes"
	CounterComputeRecvBytes   = "cluster.link.update.compute_recv_bytes"
	CounterWritebackRecvBytes = "cluster.link.writeback.recv_bytes"
)

// Counter returns the value of a named counter from the run's metrics
// snapshot (0 if absent).
func (o *Outcome) Counter(name string) int64 {
	for _, c := range o.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// message types exchanged on the links.

// updateBatch carries partial updates from one partition (via the
// switch tree) toward the compute nodes. src identifies the producer
// (partition id at the leaves, switch index further up) so a receiving
// switch can reduce its children in fixed src order instead of
// channel-arrival order — float aggregation in arrival order would make
// identical runs disagree. final marks the producer's last batch of the
// iteration.
//
// seq and ack are the reliability protocol: per-link sequence numbers
// let the receiver absorb injected duplicates idempotently (dedup before
// any reduction), and every delivered batch is acknowledged on ack so
// the sender can barrier on full delivery before closing its iteration.
type updateBatch struct {
	src     int
	seq     int
	updates []Update
	final   bool
	ack     chan<- int
}

// writebackBatch carries refreshed properties from a compute node to the
// actor currently serving one partition of the pool. recovery marks a
// re-send of the partition's fresh state to a peer adopting it after a
// crash; final marks the producer's last batch of the (sub)stream. seq
// and ack work exactly as on updateBatch.
type writebackBatch struct {
	compute  int
	part     int
	seq      int
	updates  []Update
	recovery bool
	final    bool
	ack      chan<- int
}

// Run executes the kernel on the concurrent cluster. The assignment maps
// vertices (and so their out-edge lists) to memory nodes, exactly as in
// the simulator.
func Run(g *graph.Graph, k kernels.Kernel, assign *partition.Assignment, cfg Config) (*Outcome, error) {
	return RunContext(context.Background(), g, k, assign, cfg)
}

// RunContext is Run with cancellation: the driver checks the context at
// each bulk-synchronous iteration boundary — the one point where every
// actor is parked — and on cancellation walks the normal shutdown
// sequence before returning ctx.Err(). On every path it returns only
// once each actor has exited, so nothing of the run is still reachable.
func RunContext(ctx context.Context, g *graph.Graph, k kernels.Kernel, assign *partition.Assignment, cfg Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// The memory-node actors index g's edge array from their own
	// goroutines, where a panic is beyond any caller's recover.
	if _, err := kernels.InMemory(g); err != nil {
		return nil, err
	}
	if err := kernels.CheckGraph(g, k); err != nil {
		return nil, err
	}
	if err := assign.Validate(g); err != nil {
		return nil, err
	}
	if err := cfg.Fault.validateCrashes(assign.K); err != nil {
		return nil, err
	}
	if _, ok := k.(kernels.StatefulKernel); ok {
		return nil, fmt.Errorf("cluster: stateful kernels share residual tables and cannot run as distributed actors")
	}
	d := newDriver(g, k, assign, cfg)
	return d.run(ctx)
}
