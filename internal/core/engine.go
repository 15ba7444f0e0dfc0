package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
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
	// Run executes the kernel to completion, honoring ctx cancellation
	// at iteration boundaries.
	Run(ctx context.Context, g *graph.Graph, k kernels.Kernel, cfg RunConfig) (*Result, error)
}

// serialEngine runs the kernel engine's serial reference machine over
// the in-memory graph. It ignores RunConfig.Assignment (serial execution
// has no partitions).
type serialEngine struct{}

// SerialEngine returns the serial reference as an Engine.
func SerialEngine() Engine { return serialEngine{} }

func (serialEngine) Name() string { return SerialEngineName }

func (serialEngine) Run(ctx context.Context, g *graph.Graph, k kernels.Kernel, _ RunConfig) (*Result, error) {
	src, err := kernels.InMemory(g)
	if err != nil {
		return nil, err
	}
	return runSerial(ctx, src, k)
}

// runSerial is what the serial and out-of-core engines share: the one
// kernel engine on its serial machine, over whichever source holds the
// graph.
func runSerial(ctx context.Context, src kernels.Source, k kernels.Kernel) (*Result, error) {
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

func (e analyticalEngine) Name() string {
	// The sim engine's name depends only on configuration, never on the
	// graph; probe with a nil assignment.
	return e.sys.simEngine(nil).Name()
}

func (e analyticalEngine) Run(ctx context.Context, g *graph.Graph, k kernels.Kernel, cfg RunConfig) (*Result, error) {
	assign := cfg.Assignment
	if assign == nil {
		var err error
		assign, err = e.sys.Partition(g)
		if err != nil {
			return nil, fmt.Errorf("core: partitioning: %w", err)
		}
	}
	run, err := e.sys.simEngine(assign).RunContext(ctx, g, k)
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
// concurrent implementation; Run errors for the others.
func (s *System) ConcurrentEngine() Engine { return concurrentEngine{sys: s} }

func (concurrentEngine) Name() string { return ClusterEngineName }

func (e concurrentEngine) Run(ctx context.Context, g *graph.Graph, k kernels.Kernel, cfg RunConfig) (*Result, error) {
	s := e.sys
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
	out, err := cluster.RunContext(ctx, g, k, assign, s.ClusterConfig())
	if err != nil {
		return nil, err
	}
	return FromOutcome(k.Name(), out), nil
}
