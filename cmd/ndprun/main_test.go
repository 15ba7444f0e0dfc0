package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
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
	sys, err := runSpec(t, "-cluster", "-partitioner", "hash", "-partitions", "4", "-aggregate=false",
		"-treefanin", "2", "-chandepth", "8").System()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	done := make(chan error, 1)
	go func() {
		_, err := runCluster(ctx, io.Discard, g, k, sys, false)
		done <- err
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

// runSpec returns the run ndprun's command line args describes.
func runSpec(t *testing.T, args ...string) core.Spec {
	t.Helper()
	o, fs := parse(t, args...)
	spec, err := o.spec(fs)
	if err != nil {
		t.Fatal(err)
	}
	return spec
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
	sys, err := runSpec(t, "-arch", "all", "-partitioner", "hash").System()
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSim(ctx, io.Discard, g, kernels.NewPageRank(200, 0.85), sys, "", true, false, "", false)
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
	_, err = runSerialEngine(ctx, io.Discard, g, kernels.NewPageRank(200, 0.85), "", runSpec(t, "-arch", "serial"), false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runSerialEngine with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunStoreHonorsCancelledContext pins the contract for -store: a
// container run ends with context.Canceled, on the kernel engine and on
// the simulator.
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
	for _, arch := range [][]string{{"-arch", "serial"}, {"-arch", "all", "-partitioner", "hash"}} {
		o, fs := parse(t, append([]string{"-store", path, "-kernel", "pagerank", "-priters", "200"}, arch...)...)
		if err := o.run(ctx, fs, io.Discard); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v with cancelled ctx: err = %v, want context.Canceled", arch, err)
		}
	}
}

// TestStoreRunsEveryEngine holds -store to the dispatch -graph takes: on
// the same container, read in place at a thrashing budget or
// materialized, the kernel engine (pushing: a container serves no
// in-edges) and the simulator print the same tables (-store adds its
// tier traffic after them), write the same per-iteration ledger, and
// -store-verify agrees.
func TestStoreRunsEveryEngine(t *testing.T) {
	g, err := gen.ErdosRenyi(256, 1024, gen.Config{Seed: 11, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gcsr2")
	if err := store.SaveGraphFile(path, g, 1<<10); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-kernel", "bfs", "-arch", "serial", "-direction", "push"},
		{"-kernel", "sssp", "-arch", "all", "-iters", "-partitioner", "hash", "-partitions", "4", "-csv"},
		{"-kernel", "pagerank", "-arch", "disaggregated-ndp", "-partitioner", "chunk", "-itercsv", "ledger.csv"},
	} {
		outputs := map[string]string{}
		for _, mode := range [][]string{{"-graph", path}, {"-store", path, "-store-mem", "2048", "-store-verify"}} {
			full := append(slices.Clone(mode), args...)
			for i, a := range full {
				if a == "ledger.csv" {
					full[i] = filepath.Join(dir, mode[0]+".csv")
				}
			}
			o, fs := parse(t, full...)
			var out bytes.Buffer
			if err := o.run(context.Background(), fs, &out); err != nil {
				t.Fatalf("%v: %v", full, err)
			}
			outputs[mode[0]] = out.String()
		}
		graphOut, storeOut := outputs["-graph"], outputs["-store"]
		if !strings.HasPrefix(storeOut, graphOut) || !strings.Contains(storeOut[len(graphOut):], "Read-throughs") {
			t.Fatalf("%v: -store printed\n%s\nwant -graph's\n%s\nfollowed by the tier traffic", args, storeOut, graphOut)
		}
		if slices.Contains(args, "-itercsv") {
			want, err := os.ReadFile(filepath.Join(dir, "-graph.csv"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "-store.csv"))
			if err != nil {
				t.Fatalf("-store wrote no ledger: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-store ledger differs from -graph's")
			}
		}
	}
}

// parse parses args as ndprun's command line.
func parse(t *testing.T, args ...string) (*flags, *flag.FlagSet) {
	t.Helper()
	var o flags
	fs := flag.NewFlagSet("ndprun", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &o, fs
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
	err = runServed(ctx, g, cliconf.GraphFlags{}, runSpec(t, "-kernel", "cc"), ts.URL, "", "g", false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runServed with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestDefaultsBuildOneSystem holds the ways to describe a deployment with
// no knobs set to one machine: a served job spec after Normalize and
// ndprun's default flags build core.DefaultSpec's System. Each is the
// disaggregated NDP system with in-network aggregation, core's
// partitioner and policy, and one topology.
func TestDefaultsBuildOneSystem(t *testing.T) {
	spec := serve.JobSpec{Snapshot: "g"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	served, err := spec.Spec().System()
	if err != nil {
		t.Fatal(err)
	}
	local, err := runSpec(t).System()
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.DefaultSpec().System()
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]*core.System{"served spec": served, "ndprun flags": local} {
		if got, want := sys.Engine().Name(), "disaggregated-ndp+inc"; got != want {
			t.Errorf("%s: engine %q, want %q", name, got, want)
		}
		if got, want := sys.Partitioner().Name(), def.Partitioner().Name(); got != want {
			t.Errorf("%s: partitioner %q, DefaultSpec's %q", name, got, want)
		}
		if got, want := sys.Policy().Name(), def.Policy().Name(); got != want {
			t.Errorf("%s: policy %q, DefaultSpec's %q", name, got, want)
		}
		if got, want := sys.Topology(), def.Topology(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: topology %+v, DefaultSpec's %+v", name, got, want)
		}
	}
}

// refusal parses args as ndprun's command line and returns its refusal.
func refusal(t *testing.T, args ...string) error {
	t.Helper()
	o, fs := parse(t, args...)
	_, err := o.spec(fs)
	return err
}

// TestDroppedFlagsAreRefused holds -server, -cluster, -store, the kernel
// engine, the simulated architectures, the four-architecture sweep and a
// run without -store to refusing, in one error that names it, each flag
// they cannot honour. The architectures' rows are core's table: the two
// distributed ones price with their memory nodes as the servers and have
// no offload policy or switch, and the disaggregated one has no NDP unit.
func TestDroppedFlagsAreRefused(t *testing.T) {
	for _, tc := range []struct{ mode, flag, value string }{
		{"-server", "-device", "UPMEM"},
		{"-server", "-switchbuffer", "64"},
		{"-server", "-direction", "push"},
		{"-server", "-fault-seed", "7"},
		{"-server", "-fault-drop", "0.1"},
		{"-server", "-fault-dup", "0.1"},
		{"-server", "-fault-delay", "0.1"},
		{"-server", "-crash", "1@1"},
		{"-server", "-iters", ""},
		{"-server", "-itercsv", "ledger.csv"},
		{"-server", "-treefanin", "2"},
		{"-server", "-chandepth", "4"},
		{"-cluster", "-policy", "always"},
		{"-cluster", "-device", "UPMEM"},
		{"-cluster", "-switchbuffer", "64"},
		{"-cluster", "-iters", ""},
		{"-cluster", "-itercsv", "ledger.csv"},
		{"-cluster", "-treefanin", "1"},
		{"-store", "-cluster", ""},
		{"-store", "-server", "http://127.0.0.1:8090"},
		{"-store", "-dataset", "wiki-talk"},
		{"-store", "-graph", "g.gcsr"},
		{"-store", "-scale", "0.5"},
		{"-arch serial", "-iters", ""},
		{"-arch serial", "-itercsv", "ledger.csv"},
		{"-arch serial", "-cluster", ""},
		{"-arch all", "-itercsv", "ledger.csv"},
		{"no -store", "-store-mem", "10"},
		{"no -store", "-store-verify", ""},
		{"-arch distributed", "-computes", "4"},
		{"-arch distributed", "-policy", "always"},
		{"-arch distributed", "-aggregate", ""},
		{"-arch distributed", "-switchbuffer", "64"},
		{"-arch distributed-ndp", "-computes", "4"},
		{"-arch distributed-ndp", "-policy", "always"},
		{"-arch distributed-ndp", "-aggregate", ""},
		{"-arch distributed-ndp", "-switchbuffer", "64"},
		{"-arch disaggregated", "-policy", "always"},
		{"-arch disaggregated", "-aggregate", ""},
		{"-arch disaggregated", "-switchbuffer", "64"},
		{"-arch disaggregated", "-device", "UPMEM"},
		{"-arch all", "-server", "http://127.0.0.1:8090"},
	} {
		t.Run(tc.mode+tc.flag, func(t *testing.T) {
			var args []string
			switch tc.mode {
			case "-server":
				args = []string{tc.mode, "http://127.0.0.1:8090"}
			case "-store":
				args = []string{tc.mode, "g.gcsr2"}
			case "no -store":
			default:
				args = strings.Fields(tc.mode)
			}
			if err := refusal(t, args...); err != nil {
				t.Fatalf("%s alone refused: %v", tc.mode, err)
			}
			args = append(args, tc.flag)
			if tc.value != "" {
				args = append(args, tc.value)
			}
			err := refusal(t, args...)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("%v: err = %v, want one naming %s", args, err, tc.flag)
			}
		})
	}
}

// TestDroppedFlagsFailTheRun runs the command lines that used to exit 0
// having ignored a flag: the kernel engine's ledger and machine, one
// ledger file for four architectures, a store budget and verification
// with no store, the simulator's direction and links, and the cluster's
// direction and worker pool. Each exits with an error naming the flags and
// writes no ledger.
func TestDroppedFlagsFailTheRun(t *testing.T) {
	common := []string{"-dataset", "wiki-talk", "-scale", "0.02", "-kernel", "bfs", "-csv"}
	for _, tc := range []struct {
		args  []string
		flags []string
	}{
		{[]string{"-arch", "serial", "-iters", "-itercsv", "ledger.csv"}, []string{"-iters", "-itercsv"}},
		{[]string{"-arch", "all", "-partitioner", "hash", "-itercsv", "ledger.csv"}, []string{"-itercsv"}},
		{[]string{"-partitioner", "hash", "-store-verify", "-store-mem", "10"}, []string{"-store-verify", "-store-mem"}},
		{[]string{"-arch", "serial", "-partitions", "4", "-computes", "4", "-partitioner", "hash", "-policy", "always", "-aggregate=false",
			"-device", "UPMEM", "-switchbuffer", "64", "-treefanin", "2", "-chandepth", "4", "-fault-seed", "7", "-fault-drop", "0.1",
			"-fault-dup", "0.1", "-fault-delay", "0.1", "-crash", "1@1"},
			[]string{"-partitions", "-computes", "-partitioner", "-policy", "-aggregate", "-device", "-switchbuffer", "-treefanin",
				"-chandepth", "-fault-seed", "-fault-drop", "-fault-dup", "-fault-delay", "-crash"}},
		{[]string{"-arch", "disaggregated", "-partitioner", "hash", "-direction", "push", "-treefanin", "2", "-chandepth", "4",
			"-fault-seed", "7", "-fault-drop", "0.1", "-fault-dup", "0.1", "-fault-delay", "0.1", "-crash", "1@1"},
			[]string{"-direction", "-treefanin", "-chandepth", "-fault-seed", "-fault-drop", "-fault-dup", "-fault-delay", "-crash"}},
		{[]string{"-cluster", "-partitioner", "hash", "-direction", "push", "-workers", "2"}, []string{"-direction", "-workers"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "ledger.csv")
			args := append(slices.Clone(common), tc.args...)
			for i, a := range args {
				if a == "ledger.csv" {
					args[i] = ledger
				}
			}
			o, fs := parse(t, args...)
			err := o.run(context.Background(), fs, io.Discard)
			if err == nil {
				t.Fatalf("%v ran to completion", args)
			}
			for _, f := range tc.flags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("err = %v, want one naming %s", err, f)
				}
			}
			if _, err := os.Stat(ledger); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("a refused run left a ledger: %v", err)
			}
		})
	}
}

// TestNegativeSwitchBufferIsRefused holds -switchbuffer to its range:
// 0 means unlimited, and a negative buffer is an error before any run,
// not a second spelling of 0.
func TestNegativeSwitchBufferIsRefused(t *testing.T) {
	o, fs := parse(t, "-dataset", "wiki-talk", "-scale", "0.02", "-kernel", "bfs", "-switchbuffer", "-1", "-csv")
	err := o.run(context.Background(), fs, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "SwitchBufferEntries") {
		t.Fatalf("-switchbuffer -1: err = %v, want a SwitchBufferEntries range error", err)
	}
}

// TestImpossibleCrashScheduleFailsFirst holds -crash to the pool it
// names: a node past the pool, or every node, is refused when the machine
// is built, before the graph is read — here the graph file does not exist,
// and the error is the schedule's.
func TestImpossibleCrashScheduleFailsFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gcsr")
	for crash, want := range map[string]string{"9@1": "names memory node 9", "0@1,1@1,2@1,3@2": "kills all 4"} {
		o, fs := parse(t, "-graph", missing, "-kernel", "cc", "-cluster", "-partitions", "4", "-crash", crash)
		if err := o.run(context.Background(), fs, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-crash %s: err = %v, want one that %s", crash, err, want)
		}
	}
}
