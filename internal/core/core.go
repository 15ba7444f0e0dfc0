// Package core is the public face of the framework: it wires a graph, a
// kernel, a partitioner, an architecture, and an offload policy into one
// runnable system, so downstream users don't assemble the pieces by hand.
//
// Minimal use:
//
//	g, _ := gen.ComLiveJournal.Generate(1, gen.Config{Seed: 1})
//	sys, _ := core.New(core.DisaggregatedNDP, core.WithMemoryNodes(16))
//	run, _ := sys.Engine().Run(context.Background(), g, kernels.NewPageRank(20, 0.85), core.RunConfig{})
//	fmt.Println(run.TotalDataMovementBytes)
//
// Engine (engine.go) is the one way to run a kernel: every execution
// model implements it, takes a context and returns the unified *Result.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Arch selects the simulated system architecture (the rows of Table II).
type Arch int

// Architectures.
const (
	// Distributed is Gluon-style execution on general-purpose servers.
	Distributed Arch = iota
	// DistributedNDP is GraphQ-style PIM-accelerated distributed execution.
	DistributedNDP
	// Disaggregated is far-memory execution with passive memory pools.
	Disaggregated
	// DisaggregatedNDP is this paper's architecture: NDP-capable memory
	// pools plus optional in-network aggregation.
	DisaggregatedNDP
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case Distributed:
		return "distributed"
	case DistributedNDP:
		return "distributed-ndp"
	case Disaggregated:
		return "disaggregated"
	case DisaggregatedNDP:
		return "disaggregated-ndp"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Architectures lists all four in Table II order.
func Architectures() []Arch {
	return []Arch{Distributed, DistributedNDP, Disaggregated, DisaggregatedNDP}
}

// System is a configured deployment target.
type System struct {
	arch        Arch
	topo        sim.Topology
	partitioner partition.Partitioner
	policy      sim.OffloadPolicy
	aggregation bool
	// aggregationSet records an explicit WithAggregation so Compare can
	// tell a user choice apart from the per-arch default.
	aggregationSet bool
	workers        int

	// Concurrent-cluster knobs (package cluster); they flow into one
	// validated cluster.Config — see ClusterConfig.
	treeFanIn    int
	channelDepth int
	fault        cluster.FaultPlan
}

// Option configures a System.
type Option func(*System)

// WithComputeNodes sets the host count (default 2).
func WithComputeNodes(n int) Option {
	return func(s *System) { s.topo.ComputeNodes = n }
}

// WithMemoryNodes sets the memory-pool width / partition count (default 8).
func WithMemoryNodes(n int) Option {
	return func(s *System) { s.topo.MemoryNodes = n }
}

// WithTopology replaces the whole topology (node counts included).
func WithTopology(t sim.Topology) Option {
	return func(s *System) { s.topo = t }
}

// WithPartitioner selects the edge-list partitioning strategy (default
// multilevel min-cut — the strategy Figure 6 shows the runtime needs).
func WithPartitioner(p partition.Partitioner) Option {
	return func(s *System) { s.partitioner = p }
}

// WithPolicy selects the offload policy (default the dynamic heuristic).
func WithPolicy(p sim.OffloadPolicy) Option {
	return func(s *System) { s.policy = p }
}

// WithAggregation toggles in-network aggregation (default on for
// DisaggregatedNDP). Setting it explicitly also pins the choice for
// every architecture Compare clones.
func WithAggregation(enabled bool) Option {
	return func(s *System) {
		s.aggregation = enabled
		s.aggregationSet = true
	}
}

// WithWorkers caps the analytical simulator's worker pool (default 0 =
// GOMAXPROCS). Purely a speed knob: every setting, including 1, produces
// bit-identical runs.
func WithWorkers(n int) Option {
	return func(s *System) { s.workers = n }
}

// WithTreeFanIn selects the concurrent cluster's switch topology: >= 2
// builds a SHARP-style hierarchical aggregation tree with that fan-in,
// 0 (the default) the flat single-switch topology. Only ConcurrentEngine
// consults it; the analytical engines model the switch tier abstractly.
func WithTreeFanIn(fanIn int) Option {
	return func(s *System) { s.treeFanIn = fanIn }
}

// WithChannelDepth sets the buffering of every concurrent-cluster link
// (default 64). Smaller depths exercise backpressure; correctness is
// unaffected.
func WithChannelDepth(depth int) Option {
	return func(s *System) { s.channelDepth = depth }
}

// WithFaultPlan installs a seeded fault-injection schedule for
// ConcurrentEngine: link drops, duplicates, delays, and memory-node crash
// schedules, all deterministic. The zero plan injects nothing.
func WithFaultPlan(p cluster.FaultPlan) Option {
	return func(s *System) { s.fault = p }
}

// New builds a System for the architecture with sensible defaults: 2
// compute nodes, 8 memory nodes, multilevel partitioning, the dynamic
// offload heuristic, and in-network aggregation when the architecture
// supports it.
func New(arch Arch, opts ...Option) (*System, error) {
	s := &System{
		arch:        arch,
		topo:        sim.DefaultTopology(2, 8),
		partitioner: partition.Multilevel{},
		policy:      runtime.Heuristic{},
		aggregation: arch == DisaggregatedNDP,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.topo.Validate(); err != nil {
		return nil, err
	}
	if err := s.ClusterConfig().Validate(); err != nil {
		return nil, err
	}
	switch arch {
	case Distributed, DistributedNDP, Disaggregated, DisaggregatedNDP:
	default:
		return nil, fmt.Errorf("core: unknown architecture %d", int(arch))
	}
	return s, nil
}

// Arch returns the configured architecture.
func (s *System) Arch() Arch { return s.arch }

// Topology returns the configured topology.
func (s *System) Topology() sim.Topology { return s.topo }

// Partition partitions g for this system's memory pool.
func (s *System) Partition(g *graph.Graph) (*partition.Assignment, error) {
	return s.partitioner.Partition(g, s.topo.MemoryNodes)
}

// simEngine assembles the sim engine for a prepared assignment.
func (s *System) simEngine(assign *partition.Assignment) sim.ContextEngine {
	switch s.arch {
	case Distributed:
		return &sim.Distributed{Topo: s.topo, Assign: assign, Workers: s.workers}
	case DistributedNDP:
		return &sim.DistributedNDP{Topo: s.topo, Assign: assign, Workers: s.workers}
	case Disaggregated:
		return &sim.Disaggregated{Topo: s.topo, Assign: assign, Workers: s.workers}
	default:
		return &sim.DisaggregatedNDP{
			Topo: s.topo, Assign: assign,
			Policy:               s.policy,
			InNetworkAggregation: s.aggregation,
			Workers:              s.workers,
		}
	}
}

// ClusterConfig assembles the concurrent cluster's configuration from
// the system's options — the single place where core's knobs
// (WithComputeNodes, WithAggregation, WithTreeFanIn, WithChannelDepth,
// WithFaultPlan) meet cluster.Config. New validates it, so a System that
// constructs successfully always yields a runnable cluster.
func (s *System) ClusterConfig() cluster.Config {
	return cluster.Config{
		ComputeNodes: s.topo.ComputeNodes,
		Aggregate:    s.aggregation,
		TreeFanIn:    s.treeFanIn,
		ChannelDepth: s.channelDepth,
		Fault:        s.fault,
	}
}

// Compare runs the kernel on all four architectures with this system's
// topology and partitioner, returning runs in Table II order. All runs
// share one partition assignment, so the comparison isolates the
// architecture. The four runs execute concurrently; results land in
// their Table II slots regardless of completion order, and unless
// WithAggregation pinned a choice each clone re-derives the per-arch
// aggregation default (so the rows match fresh per-arch New systems no
// matter which architecture the base was built as).
func (s *System) Compare(ctx context.Context, g *graph.Graph, k kernels.Kernel) ([]*Result, error) {
	assign, err := s.Partition(g)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning: %w", err)
	}
	return s.CompareWithAssignment(ctx, g, k, assign)
}

// CompareWithAssignment is Compare with a caller-provided partition
// assignment — all four architecture rows run on exactly that
// partitioning.
func (s *System) CompareWithAssignment(ctx context.Context, g *graph.Graph, k kernels.Kernel, assign *partition.Assignment) ([]*Result, error) {
	archs := Architectures()
	runs := make([]*Result, len(archs))
	errs := make([]error, len(archs))
	// Stateful kernels hold per-run side state in the kernel value itself,
	// so their four runs must not overlap; stateless kernels fan out.
	_, stateful := k.(kernels.StatefulKernel)
	var wg sync.WaitGroup
	for i, arch := range archs {
		clone := *s
		clone.arch = arch
		if !s.aggregationSet {
			clone.aggregation = arch == DisaggregatedNDP
		}
		one := func(i int, arch Arch, clone System) {
			run, err := clone.Engine().Run(ctx, g, k, RunConfig{Assignment: assign})
			if err != nil {
				errs[i] = fmt.Errorf("core: %s: %w", arch, err)
				return
			}
			runs[i] = run
		}
		if stateful {
			one(i, arch, clone)
			continue
		}
		wg.Add(1)
		go func(i int, arch Arch, clone System) {
			defer wg.Done()
			one(i, arch, clone)
		}(i, arch, clone)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}
