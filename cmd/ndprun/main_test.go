package main

import (
	"context"
	"errors"
	"flag"
	"testing"
	"time"

	"repro/internal/cliconf"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// TestRunClusterHonorsCancelledContext pins the CLI path of the
// cancellation contract: main's signal-aware context reaches
// the concurrent engine through runCluster, so a delivered SIGINT (modelled here
// as a pre-cancelled ctx) aborts the cluster run promptly with
// context.Canceled instead of running the workload to completion. This
// is the regression test for the bug where runCluster built its own
// context.Background and Ctrl-C could never cancel cluster runs.
func TestRunClusterHonorsCancelledContext(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewPageRank(200, 0.85)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	done := make(chan error, 1)
	go func() {
		done <- runCluster(ctx, g, k, partition.Hash{}, 2, 4, false, 2, 8, cluster.FaultPlan{}, false)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("runCluster with cancelled ctx: err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runCluster did not return after cancellation; the CLI context is not threaded through")
	}
}

// engineFlags returns ndprun's engine flags at their defaults, with args
// applied on top.
func engineFlags(t *testing.T, args ...string) cliconf.EngineFlags {
	t.Helper()
	var ef cliconf.EngineFlags
	fs := flag.NewFlagSet("ndprun", flag.ContinueOnError)
	ef.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ef
}

// TestRunSimHonorsCancelledContext is the simulator's half of the same
// contract: a cancelled ctx ends an -arch all sweep with context.Canceled
// instead of running every architecture to completion and exiting 0.
func TestRunSimHonorsCancelledContext(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ef := engineFlags(t, "-arch", "all")
	err = runSim(ctx, g, kernels.NewPageRank(200, 0.85), partition.Hash{}, cliconf.GraphFlags{}, ef, false, "", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runSim with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunSerialEngineHonorsCancelledContext pins the same for -arch
// serial, the in-process kernel engine.
func TestRunSerialEngineHonorsCancelledContext(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ef := engineFlags(t, "-arch", "serial")
	err = runSerialEngine(ctx, g, kernels.NewPageRank(200, 0.85), cliconf.GraphFlags{}, ef, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runSerialEngine with cancelled ctx: err = %v, want context.Canceled", err)
	}
}
