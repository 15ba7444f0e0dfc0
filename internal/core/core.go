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
// Engines read the graph through a kernels.Source: an in-memory
// *graph.Graph, or an out-of-core store.Store read in place.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
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

// ParseArch maps an architecture name to its Arch.
func ParseArch(name string) (Arch, error) {
	for _, a := range Architectures() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q (want distributed, distributed-ndp, disaggregated, or disaggregated-ndp)", name)
}

// System is a configured deployment target.
type System struct {
	arch        Arch
	topo        sim.Topology
	partitioner partition.Partitioner
	policy      sim.OffloadPolicy
	aggregation bool
	workers     int

	// Concurrent-cluster knobs (package cluster); they flow into one
	// validated cluster.Config — see ClusterConfig.
	treeFanIn    int
	channelDepth int
	fault        cluster.FaultPlan
}

// Option configures a System.
type Option func(*System)

// WithComputeNodes sets the host count (default DefaultSpec's, 2).
func WithComputeNodes(n int) Option {
	return func(s *System) { s.topo.ComputeNodes = n }
}

// WithMemoryNodes sets the memory-pool width / partition count (default
// DefaultSpec's, 8).
func WithMemoryNodes(n int) Option {
	return func(s *System) { s.topo.MemoryNodes = n }
}

// WithTopology replaces the whole topology (node counts included).
func WithTopology(t sim.Topology) Option {
	return func(s *System) { s.topo = t }
}

// WithPartitioner selects the edge-list partitioning strategy (default
// DefaultSpec's, multilevel min-cut: the strategy Figure 6 shows the
// runtime needs).
func WithPartitioner(p partition.Partitioner) Option {
	return func(s *System) { s.partitioner = p }
}

// WithPolicy selects the offload policy (default DefaultSpec's, the
// dynamic heuristic).
func WithPolicy(p sim.OffloadPolicy) Option {
	return func(s *System) { s.policy = p }
}

// WithAggregation toggles in-network aggregation (default on). Only
// DisaggregatedNDP and the concurrent cluster have a switch that reads it.
func WithAggregation(enabled bool) Option {
	return func(s *System) { s.aggregation = enabled }
}

// WithWorkers caps the analytical simulator's worker pool (default 0 =
// GOMAXPROCS). Purely a speed knob: every setting, including 1, produces
// bit-identical runs.
func WithWorkers(n int) Option {
	return func(s *System) { s.workers = n }
}

// WithTreeFanIn selects the concurrent cluster's switch topology: >= 2
// builds a SHARP-style hierarchical aggregation tree with that fan-in,
// 0 (the default) the flat single-switch topology; New refuses 1, which
// is neither. Only ConcurrentEngine
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

// New builds a System for the architecture on core's defaults
// (DefaultSpec, its partitioner at seed 0), then applies opts.
func New(arch Arch, opts ...Option) (*System, error) {
	d := DefaultSpec()
	d.Arch, d.Seed = arch.String(), 0
	return d.system(opts...)
}

// Topology returns the configured topology.
func (s *System) Topology() sim.Topology { return s.topo }

// Partitioner returns the configured partitioner.
func (s *System) Partitioner() partition.Partitioner { return s.partitioner }

// Policy returns the configured offload policy.
func (s *System) Policy() sim.OffloadPolicy { return s.policy }

// Partition partitions g for this system's memory pool.
func (s *System) Partition(g *graph.Graph) (*partition.Assignment, error) {
	return s.partitioner.Partition(g, s.topo.MemoryNodes)
}

// simEngine assembles the sim engine that prices this system's
// architecture.
func (s *System) simEngine() sim.Engine {
	switch s.arch {
	case Distributed:
		return &sim.Distributed{Topo: s.topo}
	case DistributedNDP:
		return &sim.DistributedNDP{Topo: s.topo}
	case Disaggregated:
		return &sim.Disaggregated{Topo: s.topo}
	default:
		return &sim.DisaggregatedNDP{
			Topo:                 s.topo,
			Policy:               s.policy,
			InNetworkAggregation: s.aggregation,
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
// architecture.
func (s *System) Compare(ctx context.Context, src kernels.Source, k kernels.Kernel) ([]*Result, error) {
	assign, err := s.Partition(src.Vertices())
	if err != nil {
		return nil, fmt.Errorf("core: partitioning: %w", err)
	}
	return s.CompareWithAssignment(ctx, src, k, assign)
}

// CompareWithAssignment is Compare with a caller-provided partition
// assignment — all four architecture rows price one execution on exactly
// that partitioning, and each owns its values.
func (s *System) CompareWithAssignment(ctx context.Context, src kernels.Source, k kernels.Kernel, assign *partition.Assignment) ([]*Result, error) {
	t, err := s.Execute(ctx, src, k, RunConfig{Assignment: assign})
	if err != nil {
		return nil, err
	}
	archs := Architectures()
	runs := make([]*Result, len(archs))
	for i, arch := range archs {
		clone := *s
		clone.arch = arch
		if runs[i], err = clone.Price(t); err != nil {
			return nil, fmt.Errorf("core: %s: %w", arch, err)
		}
		runs[i].Values = slices.Clone(runs[i].Values)
	}
	return runs, nil
}
