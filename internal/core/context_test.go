package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/kernels/kerneltest"
	"repro/internal/store"
)

func ctxTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(128, 512, gen.Config{Seed: 5, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunHonorsCancelledContext pins the cancellation contract the
// service layer depends on: a cancelled job context must abort the
// analytical simulator and the concurrent cluster with ctx.Err(), not
// run the workload to completion.
func TestRunHonorsCancelledContext(t *testing.T) {
	g := ctxTestGraph(t)
	k := kernels.NewPageRank(50, 0.85)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, arch := range []Arch{DisaggregatedNDP, Disaggregated, Distributed} {
		sys, err := New(arch, WithMemoryNodes(4), WithComputeNodes(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Engine().Run(ctx, g, k, RunConfig{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run with cancelled ctx: err = %v, want context.Canceled", arch, err)
		}
	}

	sys, err := New(DisaggregatedNDP, WithMemoryNodes(4), WithComputeNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ConcurrentEngine().Run(ctx, g, k, RunConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ConcurrentEngine().Run with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestEngineRunHonorsCancelledContext covers the same contract through
// the unified Engine interface the service executes against.
func TestEngineRunHonorsCancelledContext(t *testing.T) {
	g := ctxTestGraph(t)
	k := kernels.NewPageRank(50, 0.85)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	sys, err := New(DisaggregatedNDP, WithMemoryNodes(4), WithComputeNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{sys.Engine(), sys.ConcurrentEngine()} {
		if _, err := eng.Run(ctx, g, k, RunConfig{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run with cancelled ctx: err = %v, want context.Canceled", eng.Name(), err)
		}
	}
}

// TestRunMidflightCancellation cancels while the cluster is running and
// asserts it unwinds cleanly (ctx.Err(), no hang). The driver checks at
// iteration boundaries, so a kernel with many iterations gives it ample
// opportunity to observe the cancellation.
func TestRunMidflightCancellation(t *testing.T) {
	g := ctxTestGraph(t)
	k := kernels.NewPageRank(200, 0.85)
	sys, err := New(DisaggregatedNDP, WithMemoryNodes(4), WithComputeNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.ConcurrentEngine().Run(ctx, g, k, RunConfig{})
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel: err = %v, want nil (finished first) or context.Canceled", err)
	}
}

// TestSerialEnginesCancelMidRun cancels from inside the second
// iteration's traversal: the serial reference and the out-of-core
// engine — one kernel engine over two sources — must both stop at the
// next iteration boundary with context.Canceled instead of running the
// remaining ~200 iterations while holding an executor slot.
func TestSerialEnginesCancelMidRun(t *testing.T) {
	g := ctxTestGraph(t)
	data, err := store.EncodeGraph(g, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBytes(data, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{SerialEngine(), StoreEngine(st)} {
		ctx, cancel := context.WithCancel(context.Background())
		k := kerneltest.CancelAfter(kernels.NewPageRank(200, 0.85), g.NumVertices()+1, cancel)
		res, err := eng.Run(ctx, g, k, RunConfig{})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: mid-run cancel: result %v, err = %v, want nil, context.Canceled", eng.Name(), res, err)
		}
	}
	if pins := st.Stats().Pins; pins != 0 {
		t.Errorf("%d segment pins outstanding after cancellation", pins)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
