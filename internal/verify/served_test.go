package verify

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// smallServedScenario is sized for test latency: big enough to exercise
// the full served round trip, small enough to finish in well under a
// second per job.
func smallServedScenario() Scenario {
	return Scenario{
		Seed:         7,
		Generator:    "er",
		Vertices:     128,
		EdgeFactor:   3,
		Kernel:       "pagerank",
		Partitioner:  "hash",
		Partitions:   4,
		ComputeNodes: 2,
		Workers:      2,
	}
}

// TestCheckServedLeavesNoGoroutines pins CheckServed's cleanup contract:
// the oracle boots an HTTP server, a job manager with executor
// goroutines, and a Serve loop — and must join all of them before
// returning. The bound is polled, not slept: goroutine teardown is
// asynchronous after Shutdown returns.
func TestCheckServedLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("served round trip")
	}
	before := runtime.NumGoroutine()
	// Four runs, one slack: a goroutine leaked per call (a Serve loop
	// nobody joins, an executor that misses Stop) must clear the
	// allowance instead of hiding inside it.
	for i := 0; i < 4; i++ {
		if err := CheckServed(smallServedScenario()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A small slack absorbs runtime-internal goroutines (netpoller,
		// GC workers) that may start during the run and never exit.
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServedOracleHonorsCancelledContext hands the served oracle's two
// steps a cancelled context, against a live server holding the scenario's
// snapshot: each must stop with context canceled instead of running its
// jobs to completion.
func TestServedOracleHonorsCancelledContext(t *testing.T) {
	sc := smallServedScenario()
	g, err := sc.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.NewRegistry(), &metrics.Registry{}, serve.ManagerConfig{})
	defer mgr.Stop()
	ts := httptest.NewServer(serve.NewServer(mgr))
	defer ts.Close()
	c := serve.NewClient(ts.URL, "verify")
	if _, err := c.PutSnapshotGraph(context.Background(), "scenario", g); err != nil {
		t.Fatal(err)
	}
	spec := serve.JobSpec{Snapshot: "scenario", Kernel: sc.Kernel, Partitions: sc.Partitions, Computes: sc.ComputeNodes}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps := map[string]func() error{
		"checkServedSpec": func() error { return checkServedSpec(ctx, c, g, spec, sc.Seed+1) },
		"submitAndWait":   func() error { _, err := submitAndWait(ctx, c, spec); return err },
	}
	for name, step := range steps {
		if err := step(); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Errorf("%s with a cancelled context: err = %v, want context canceled", name, err)
		}
	}
}

// TestServedPlanSharing runs the served oracle on a seedless and a seeded
// partitioner, both engines each: the reseeded submission must reuse the
// plan of the first for ldg and compute its own for multilevel.
func TestServedPlanSharing(t *testing.T) {
	for _, name := range []string{"ldg", "multilevel"} {
		sc := smallServedScenario()
		sc.Partitioner, sc.Cluster = name, true
		if err := CheckServed(sc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
