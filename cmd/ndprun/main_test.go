package main

import (
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cliconf"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
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

// TestRunStoreHonorsCancelledContext pins the contract for -store: the
// container run ends with context.Canceled.
func TestRunStoreHonorsCancelledContext(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gcsr2")
	if err := store.SaveGraphFile(path, g, 1<<10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = runStore(ctx, path, 0, false, engineFlags(t, "-kernel", "pagerank", "-priters", "200"), false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runStore with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunServedHonorsCancelledContext pins it for -server: against a live
// server, a cancelled ctx ends the submission with context.Canceled.
func TestRunServedHonorsCancelledContext(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.NewRegistry(), &metrics.Registry{}, serve.ManagerConfig{})
	defer mgr.Stop()
	ts := httptest.NewServer(serve.NewServer(mgr))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = runServed(ctx, g, cliconf.GraphFlags{}, engineFlags(t, "-kernel", "cc"), cliconf.ClusterFlags{}, false, ts.URL, "", "g", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runServed with cancelled ctx: err = %v, want context.Canceled", err)
	}
}
