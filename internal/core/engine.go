package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

// RunConfig carries per-run inputs that are not part of the engine's
// identity: today just an optional pre-computed partition assignment
// (reuse one assignment across kernels and engines to amortise
// partitioning cost and to guarantee runs share a partitioning).
type RunConfig struct {
	// Assignment, when non-nil, skips internal partitioning. It must
	// have as many parts as the engine's memory-pool width.
	Assignment *partition.Assignment
}

// Engine is the unified execution seam: the serial reference, the four
// analytical simulators, and the concurrent actor cluster all implement
// it, so Compare, the CLIs, and the ndpserve job executor are thin
// dispatch over one interface.
type Engine interface {
	// Name identifies the execution model (stable across runs — cache
	// keys and wire formats embed it).
	Name() string
	// Run executes the kernel to completion on the graph src holds,
	// honoring ctx cancellation at iteration boundaries.
	Run(ctx context.Context, src kernels.Source, k kernels.Kernel, cfg RunConfig) (*Result, error)
}

// serialEngine runs the kernel engine's serial reference machine. It
// ignores RunConfig.Assignment (serial execution has no partitions).
type serialEngine struct{}

// SerialEngine returns the serial reference as an Engine.
func SerialEngine() Engine { return serialEngine{} }

func (serialEngine) Name() string { return SerialEngineName }

func (serialEngine) Run(ctx context.Context, src kernels.Source, k kernels.Kernel, _ RunConfig) (*Result, error) {
	res, err := kernels.RunOn(ctx, src, k, kernels.Serial, kernels.Options{})
	if err != nil {
		return nil, err
	}
	return FromSerial(k.Name(), res), nil
}

// analyticalEngine adapts a System's configured sim engine.
type analyticalEngine struct {
	sys *System
}

// Engine returns the System's analytical engine for its configured
// architecture as the unified core.Engine.
func (s *System) Engine() Engine { return analyticalEngine{sys: s} }

func (e analyticalEngine) Name() string { return e.sys.simEngine().Name() }

func (e analyticalEngine) Run(ctx context.Context, src kernels.Source, k kernels.Kernel, cfg RunConfig) (*Result, error) {
	t, err := e.sys.Execute(ctx, src, k, cfg)
	if err != nil {
		return nil, err
	}
	// The trace is this run's alone, so the Result owns its values.
	return e.sys.Price(t)
}

// Execute runs k once on the system's memory pool — over cfg.Assignment,
// or the system's own partitioning of src — and returns the trace every
// architecture prices. It does not depend on the architecture, the
// policy, the aggregation switch or the devices: Price turns one trace
// into any System's Result whose memory-pool width matches.
func (s *System) Execute(ctx context.Context, src kernels.Source, k kernels.Kernel, cfg RunConfig) (*sim.Trace, error) {
	assign := cfg.Assignment
	if assign == nil {
		var err error
		assign, err = s.Partition(src.Vertices())
		if err != nil {
			return nil, fmt.Errorf("core: partitioning: %w", err)
		}
	}
	if assign.K != s.topo.MemoryNodes {
		return nil, fmt.Errorf("core: assignment has %d parts, the memory pool %d nodes", assign.K, s.topo.MemoryNodes)
	}
	return sim.Execute(ctx, src, k, sim.ExecConfig{Assign: assign, Workers: s.workers})
}

// Price turns a trace into this system's analytical Result, as Run would
// have returned it for the same execution. The trace stays unchanged and
// may be priced again, concurrently too; the Result shares the trace's
// values, read-only: a caller that writes to them clones them first.
func (s *System) Price(t *sim.Trace) (*Result, error) {
	run, err := s.simEngine().Price(t)
	if err != nil {
		return nil, err
	}
	return FromSim(run), nil
}

// concurrentEngine adapts the actor-cluster implementation of the
// disaggregated NDP architecture, shaped by the System's options via
// ClusterConfig.
type concurrentEngine struct {
	sys *System
}

// ConcurrentEngine returns the System's concurrent actor cluster as the
// unified core.Engine. Only the DisaggregatedNDP architecture has a
// concurrent implementation; Run errors for the others, and for a
// container (graph.ErrVertexView): the actors hold the edges in RAM.
func (s *System) ConcurrentEngine() Engine { return concurrentEngine{sys: s} }

func (concurrentEngine) Name() string { return ClusterEngineName }

func (e concurrentEngine) Run(ctx context.Context, src kernels.Source, k kernels.Kernel, cfg RunConfig) (*Result, error) {
	s, g := e.sys, src.Vertices()
	if s.arch != DisaggregatedNDP {
		return nil, fmt.Errorf("core: concurrent execution models the disaggregated NDP architecture; got %s", s.arch)
	}
	assign := cfg.Assignment
	if assign == nil {
		var err error
		assign, err = s.Partition(g)
		if err != nil {
			return nil, fmt.Errorf("core: partitioning: %w", err)
		}
	}
	out, err := cluster.Run(ctx, g, k, assign, s.ClusterConfig())
	if err != nil {
		return nil, err
	}
	return FromOutcome(k.Name(), out), nil
}
