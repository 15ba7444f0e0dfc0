package cluster

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

func clusterGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Community(900, 9, 7, 0.85, gen.Config{Seed: 23, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func clusterAssign(t testing.TB, g *graph.Graph, parts int) *partition.Assignment {
	t.Helper()
	a, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The cluster's partition-then-reduce structure associates floating-point
// sums differently than the serial reference (run-to-run the cluster is
// bit-deterministic — see TestClusterDeterministicRuns — but the
// association differs from serial's); min/max kernels must still be exact.
func tolFor(k kernels.Kernel) float64 {
	if k.Traits().Agg == kernels.AggSum {
		return 1e-9
	}
	return 0
}

func TestClusterMatchesSerialAllKernels(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	for _, k := range kernels.All() {
		k := k
		if _, stateful := k.(kernels.StatefulKernel); stateful {
			continue // rejected by design; covered below
		}
		t.Run(k.Name(), func(t *testing.T) {
			ref, err := kernels.RunSerial(g, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, aggregate := range []bool{false, true} {
				out, err := Run(g, k, a, Config{ComputeNodes: 3, Aggregate: aggregate})
				if err != nil {
					t.Fatalf("aggregate=%v: %v", aggregate, err)
				}
				if out.Iterations != ref.Iterations {
					t.Errorf("aggregate=%v: iterations %d, serial %d", aggregate, out.Iterations, ref.Iterations)
				}
				tol := tolFor(k)
				for v := range ref.Values {
					x, y := out.Values[v], ref.Values[v]
					if math.IsInf(x, 1) && math.IsInf(y, 1) {
						continue
					}
					if d := math.Abs(x - y); d > tol {
						t.Fatalf("aggregate=%v: value[%d] = %g, serial %g", aggregate, v, x, y)
					}
				}
			}
		})
	}
}

func TestClusterRejectsStatefulKernels(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 4)
	if _, err := Run(g, kernels.NewPageRankDelta(0.85, 1e-9), a, Config{}); err == nil {
		t.Error("accepted a stateful kernel")
	}
}

// TestVertexViewIsRefused pins the input check on every engine that
// walks a graph's edge array by partition: an offsets-only view (what an
// out-of-core store hands out as its vertex side) ends in an error from
// the four simulated architectures and from the cluster — whose traversal
// runs on actor goroutines, where the slice-bounds panic it used to be
// could not be recovered by any caller.
func TestVertexViewIsRefused(t *testing.T) {
	g := clusterGraph(t)
	view, err := graph.NewVertexView(g.Offsets())
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a := clusterAssign(t, g, parts)
	topo := sim.DefaultTopology(2, parts)
	k := kernels.NewBFS(0)
	cases := []struct {
		name string
		run  func() error
	}{
		{"distributed", func() error { _, err := (&sim.Distributed{Topo: topo, Assign: a}).Run(view, k); return err }},
		{"distributed-ndp", func() error { _, err := (&sim.DistributedNDP{Topo: topo, Assign: a}).Run(view, k); return err }},
		{"disaggregated", func() error { _, err := (&sim.Disaggregated{Topo: topo, Assign: a}).Run(view, k); return err }},
		{"disaggregated-ndp", func() error { _, err := (&sim.DisaggregatedNDP{Topo: topo, Assign: a}).Run(view, k); return err }},
		{"cluster", func() error { _, err := Run(view, k, a, Config{ComputeNodes: 2}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Fatal("a vertex-only view was accepted")
			}
		})
	}
}

// TestClusterTrafficMatchesSimulator is the cross-validation at the heart
// of this package: bytes actually sent over the actor channels must equal
// the bytes the analytical simulator accounts.
func TestClusterTrafficMatchesSimulator(t *testing.T) {
	g := clusterGraph(t)
	const parts = 6
	a := clusterAssign(t, g, parts)
	topo := sim.DefaultTopology(2, parts)
	for _, kn := range []string{"pagerank", "bfs", "cc", "sssp"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		for _, aggregate := range []bool{false, true} {
			run, err := (&sim.DisaggregatedNDP{Topo: topo, Assign: a, InNetworkAggregation: aggregate}).Run(g, k)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(g, k, a, Config{ComputeNodes: 2, Aggregate: aggregate})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.PerIteration) != len(run.Records) {
				t.Fatalf("%s agg=%v: %d cluster iterations vs %d sim records",
					kn, aggregate, len(out.PerIteration), len(run.Records))
			}
			for i, tr := range out.PerIteration {
				rec := run.Records[i]
				if tr.MemToSwitch != rec.UpdateMoveBytes {
					t.Errorf("%s agg=%v it%d: mem->switch %d, sim partial updates %d",
						kn, aggregate, i, tr.MemToSwitch, rec.UpdateMoveBytes)
				}
				wantDeliver := rec.UpdateMoveBytes
				if aggregate {
					wantDeliver = rec.AggregatedMoveBytes
				}
				if tr.SwitchToCompute != wantDeliver {
					t.Errorf("%s agg=%v it%d: switch->compute %d, sim %d",
						kn, aggregate, i, tr.SwitchToCompute, wantDeliver)
				}
				if tr.Writeback != rec.WritebackBytes {
					t.Errorf("%s agg=%v it%d: writeback %d, sim %d",
						kn, aggregate, i, tr.Writeback, rec.WritebackBytes)
				}
				if tr.Total() != rec.DataMovementBytes {
					t.Errorf("%s agg=%v it%d: total %d, sim headline %d",
						kn, aggregate, i, tr.Total(), rec.DataMovementBytes)
				}
			}
		}
	}
}

func TestClusterAggregationReducesDelivery(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	k := kernels.NewPageRank(5, 0.85)
	plain, err := Run(g, k, a, Config{ComputeNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(g, k, a, Config{ComputeNodes: 2, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Traffic.SwitchToCompute >= plain.Traffic.SwitchToCompute {
		t.Errorf("aggregation did not reduce delivery: %d >= %d",
			agg.Traffic.SwitchToCompute, plain.Traffic.SwitchToCompute)
	}
	if agg.Traffic.MemToSwitch != plain.Traffic.MemToSwitch {
		t.Errorf("aggregation changed pool-side traffic: %d vs %d",
			agg.Traffic.MemToSwitch, plain.Traffic.MemToSwitch)
	}
}

func TestClusterValidatesInputs(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 4)
	// Weighted kernel on unweighted graph.
	ug, err := gen.ErdosRenyi(100, 300, gen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ua := clusterAssign(t, ug, 4)
	if _, err := Run(ug, kernels.NewSSSP(0), ua, Config{}); err == nil {
		t.Error("accepted sssp on unweighted graph")
	}
	// Mismatched assignment.
	bad := &partition.Assignment{Parts: make([]int32, 5), K: 2}
	if _, err := Run(g, kernels.NewBFS(0), bad, Config{}); err == nil {
		t.Error("accepted invalid assignment")
	}
	_ = a
}

func TestClusterSingleNodeDegenerate(t *testing.T) {
	// 1 memory node, 1 compute node: the protocol must still terminate.
	g := clusterGraph(t)
	a := clusterAssign(t, g, 1)
	out, err := Run(g, kernels.NewBFS(0), a, Config{ComputeNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kernels.RunSerial(g, kernels.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Values {
		if out.Values[v] != ref.Values[v] &&
			!(math.IsInf(out.Values[v], 1) && math.IsInf(ref.Values[v], 1)) {
			t.Fatalf("value[%d] = %g, want %g", v, out.Values[v], ref.Values[v])
		}
	}
	if !out.Converged {
		t.Error("bfs did not converge")
	}
}

func TestClusterManyActorsSmallGraph(t *testing.T) {
	// More actors than work: 16 memory nodes, 8 compute nodes, 64 vertices.
	g, err := gen.ErdosRenyi(64, 256, gen.Config{Seed: 5, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a := clusterAssign(t, g, 16)
	out, err := Run(g, kernels.NewConnectedComponents(), a, Config{ComputeNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kernels.RunSerial(g, kernels.NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Values {
		if out.Values[v] != ref.Values[v] {
			t.Fatalf("value[%d] = %g, want %g", v, out.Values[v], ref.Values[v])
		}
	}
}

// TestClusterDeterministicRuns asserts what the actors' state layout
// gives by construction — per-vertex state is index-addressed and drained
// in ascending order, and ndplint's maporder rule keeps the few remaining
// maps (keyed by child or link, never by vertex) from leaking iteration
// order: two identical cluster runs must agree
// bit-for-bit — values, iteration counts, and every recorded traffic
// number — despite goroutine scheduling. Sum kernels are the sensitive
// case (float aggregation order), so PageRank and SSSP run under both
// flat and tree topologies, with and without in-network aggregation.
func TestClusterDeterministicRuns(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	for _, kn := range []string{"pagerank", "sssp"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{ComputeNodes: 3},
			{ComputeNodes: 3, Aggregate: true},
			{ComputeNodes: 2, Aggregate: true, TreeFanIn: 2},
		} {
			ref, err := Run(g, k, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for rerun := 0; rerun < 3; rerun++ {
				out, err := Run(g, k, a, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.Iterations != ref.Iterations || out.Converged != ref.Converged {
					t.Fatalf("%s %+v: iterations %d/%v, first run %d/%v",
						kn, cfg, out.Iterations, out.Converged, ref.Iterations, ref.Converged)
				}
				for v := range ref.Values {
					if out.Values[v] != ref.Values[v] {
						t.Fatalf("%s %+v rerun %d: value[%d] = %g, first run %g (bit-for-bit determinism broken)",
							kn, cfg, rerun, v, out.Values[v], ref.Values[v])
					}
				}
				if len(out.PerIteration) != len(ref.PerIteration) {
					t.Fatalf("%s %+v: per-iteration length %d vs %d", kn, cfg, len(out.PerIteration), len(ref.PerIteration))
				}
				for i := range ref.PerIteration {
					if out.PerIteration[i] != ref.PerIteration[i] {
						t.Fatalf("%s %+v rerun %d it%d: traffic %+v, first run %+v",
							kn, cfg, rerun, i, out.PerIteration[i], ref.PerIteration[i])
					}
				}
				for l := range ref.LevelBytes {
					if out.LevelBytes[l] != ref.LevelBytes[l] {
						t.Fatalf("%s %+v rerun %d: level %d bytes %d, first run %d",
							kn, cfg, rerun, l, out.LevelBytes[l], ref.LevelBytes[l])
					}
				}
			}
		}
	}
}

// heldKernel is a heap object of the test's own that every actor keeps
// reachable, through the driver, for exactly as long as it keeps its own
// accumulators: a finalizer on it fires only once no actor is left.
type heldKernel struct{ kernels.Kernel }

// TestRunLeavesNoActors pins that RunContext joins every actor — memory
// nodes and switches too, not only the compute nodes whose value
// fragments it needs — on the clean, crash-plan and cancelled paths: a
// single collection immediately on return already frees what the actors
// held, and the goroutine count is back at its baseline. (A caller that
// reads its live heap right after a run must not find the run in it.)
func TestRunLeavesNoActors(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	freed := make(chan struct{}, 1)
	run := func(i int) {
		k := &heldKernel{kernels.NewBFS(0)}
		runtime.SetFinalizer(k, func(*heldKernel) { freed <- struct{}{} })
		ctx, cfg := context.Background(), Config{ComputeNodes: 3, Aggregate: true, TreeFanIn: 2 * (i % 2)}
		switch i % 3 {
		case 1:
			cfg.Fault = FaultPlan{Seed: uint64(i), Update: LinkFaults{Drop: 0.05}, Crash: map[int]int{2: 1}}
		case 2:
			ctx = cancelled
		}
		if _, err := RunContext(ctx, g, k, a, cfg); (err != nil) != (ctx == cancelled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
	}
	var base int
	for i := 0; i <= 200; i++ {
		run(i)
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: actor state survived a collection on return", i)
		}
		if i == 0 {
			base = runtime.NumGoroutine() // the runtime's finalizer goroutine exists from here on
		}
		// An actor that has signalled the join may still be unwinding.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: %d goroutines, baseline %d", i, runtime.NumGoroutine(), base)
			}
		}
	}
}
