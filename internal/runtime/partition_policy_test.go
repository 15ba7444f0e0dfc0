package runtime

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

func TestMixedOracleAtOrBelowGlobalOracle(t *testing.T) {
	// The per-partition oracle dominates the global one: letting each
	// memory node choose independently can only help.
	for _, ds := range []gen.Dataset{gen.Twitter7, gen.ComLiveJournal, gen.WikiTalk} {
		g, err := ds.Generate(0.125, gen.Config{Seed: 8, DropSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, kn := range []string{"pagerank", "bfs", "cc"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			global := runWithPolicy(t, g, k, 8, sim.Oracle{}, false)
			mixed := runWithPolicy(t, g, k, 8, sim.MixedOracle{}, false)
			if mixed.TotalDataMovementBytes > global.TotalDataMovementBytes {
				t.Errorf("%s/%s: mixed oracle %d above global oracle %d",
					ds.Name, kn, mixed.TotalDataMovementBytes, global.TotalDataMovementBytes)
			}
		}
	}
}

func TestMixedOracleMatchesRecordLowerBound(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.125, gen.Config{Seed: 8, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	run := runWithPolicy(t, g, k, 8, sim.MixedOracle{}, false)
	for _, rec := range run.Records {
		// The bound decomposes over partitions: each moves its cheaper
		// mechanism.
		var bound int64
		for _, p := range rec.PerPartition {
			bound += min(p.OffloadCost(), p.EdgeBytes)
		}
		if rec.DataMovementBytes != bound {
			t.Errorf("it%d: moved %d, per-partition lower bound %d",
				rec.Iteration, rec.DataMovementBytes, bound)
		}
	}
}

func TestMixedOracleCanStrictlyBeatGlobal(t *testing.T) {
	// A graph whose partitions differ in shape: some dense (offload
	// wins), some sparse (fetch wins). The hubs of a SkewedStar graph are
	// the low vertex ids, so *range* partitioning concentrates them on
	// memory node 0 while the remaining nodes hold only sparse leaves —
	// exactly the heterogeneity where per-node decisions beat a global
	// one.
	g, err := gen.SkewedStar(2048, 4, 30000, 1, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Range{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.DefaultTopology(2, 8)
	k := kernels.NewPageRank(5, 0.85)
	trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	global, err := (&sim.DisaggregatedNDP{Topo: topo, Policy: sim.Oracle{}}).Price(trace)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := (&sim.DisaggregatedNDP{Topo: topo, Policy: sim.MixedOracle{}}).Price(trace)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.TotalDataMovementBytes >= global.TotalDataMovementBytes {
		t.Errorf("mixed oracle %d did not strictly beat global %d on heterogeneous partitions",
			mixed.TotalDataMovementBytes, global.TotalDataMovementBytes)
	}
}

func TestPartitionHeuristicTracksMixedOracle(t *testing.T) {
	for _, ds := range []gen.Dataset{gen.Twitter7, gen.WikiTalk} {
		g, err := ds.Generate(0.125, gen.Config{Seed: 8, DropSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, kn := range []string{"pagerank", "bfs"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			oracle := runWithPolicy(t, g, k, 8, sim.MixedOracle{}, false)
			heur := runWithPolicy(t, g, k, 8, PartitionHeuristic{}, false)
			if float64(heur.TotalDataMovementBytes) > 1.35*float64(oracle.TotalDataMovementBytes) {
				t.Errorf("%s/%s: partition heuristic %d vs mixed oracle %d (>35%% off)",
					ds.Name, kn, heur.TotalDataMovementBytes, oracle.TotalDataMovementBytes)
			}
		}
	}
}

// spy passes each Choice its policy makes to check, with the View it was
// made from.
type spy struct {
	sim.OffloadPolicy
	check func(v *sim.View, c sim.Choice)
}

func (s spy) Choose(v *sim.View) sim.Choice {
	c := s.OffloadPolicy.Choose(v)
	s.check(v, c)
	return c
}

// TestPartitionHeuristicMaskLength holds the per-node heuristic, on the
// views a 7-node pool's pricing hands it, to one decision a node, each
// Heuristic's on that node's view.
func TestPartitionHeuristicMaskLength(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.125, gen.Config{Seed: 8, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	choices := 0
	check := func(v *sim.View, c sim.Choice) {
		choices++
		if len(c.Nodes) != 7 {
			t.Fatalf("mask length %d, want 7", len(c.Nodes))
		}
		for p, off := range c.Nodes {
			if want := (Heuristic{}).Choose(&sim.View{Pool: v.Node(p)}).Offload; off != want {
				t.Errorf("node %d chose %v, Heuristic on its view %v", p, off, want)
			}
		}
	}
	run := runWithPolicy(t, g, kernels.NewBFS(0), 7, spy{PartitionHeuristic{}, check}, false)
	if choices != len(run.Records) {
		t.Errorf("%d choices for %d iterations", choices, len(run.Records))
	}
}

// TestPartitionHeuristicSkipsEmptyNodes runs the per-node heuristic where
// most nodes idle: a source-rooted BFS on a range-partitioned star keeps
// whole memory nodes out of the early frontiers. An idle node never
// offloads while busy ones do, and a node whose share is dense (1000
// edges per static destination) offloads.
func TestPartitionHeuristicSkipsEmptyNodes(t *testing.T) {
	g, err := gen.SkewedStar(2048, 4, 30000, 1, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Range{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	idle, offloaded := 0, 0
	check := func(v *sim.View, c sim.Choice) {
		for p, off := range c.Nodes {
			if off {
				offloaded++
			}
			if v.Node(p).FrontierSize == 0 {
				idle++
				if off {
					t.Errorf("idle memory node %d offloaded", p)
				}
			}
		}
	}
	runOn(t, sim.DefaultTopology(2, 8), a, g, kernels.NewBFS(0), spy{PartitionHeuristic{}, check}, false)
	if idle == 0 || offloaded == 0 {
		t.Fatalf("%d idle and %d offloaded node-iterations, want some of each", idle, offloaded)
	}
	dense := sim.PreStats{Partitions: 1, NumVertices: 1000, FrontierSize: 100, FrontierDegreeSum: 100000, StaticPartialUpdates: 500}
	if !(Heuristic{}).Choose(&sim.View{Pool: dense}).Offload {
		t.Error("dense memory node (1000 edges per static dst) should offload")
	}
}

func TestPartitionPolicyResultsUnchanged(t *testing.T) {
	// Offload decisions change accounting, never results.
	g, err := gen.ComLiveJournal.Generate(0.125, gen.Config{Seed: 8, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("cc")
	if err != nil {
		t.Fatal(err)
	}
	a := runWithPolicy(t, g, k, 8, sim.MixedOracle{}, false)
	b := runWithPolicy(t, g, k, 8, sim.NeverOffload{}, false)
	for v := range a.Result.Values {
		if a.Result.Values[v] != b.Result.Values[v] {
			t.Fatalf("values diverge at %d", v)
		}
	}
}

func TestMixedPolicyNames(t *testing.T) {
	if (sim.MixedOracle{}).Name() != "mixed-oracle" {
		t.Error("mixed-oracle name")
	}
	if (PartitionHeuristic{}).Name() != "partition-heuristic" {
		t.Error("partition-heuristic name")
	}
}

// TestDecidePartitionsDegenerate pins the per-node heuristic on
// degenerate views: an empty node never offloads, a busy node with no
// statistics (no StaticPartialUpdates, no NumVertices) gets a finite
// estimate from the degree sum itself, and a pool of no nodes gets an
// empty mask. A node's choice is Heuristic's on its view
// (TestPartitionHeuristicMaskLength).
func TestDecidePartitionsDegenerate(t *testing.T) {
	h := Heuristic{}
	if idle := (sim.PreStats{Partitions: 1}); h.Choose(&sim.View{Pool: idle}).Offload {
		t.Error("empty node chose offload")
	}
	busy := sim.PreStats{Partitions: 1, FrontierSize: 4, FrontierDegreeSum: 4000}
	if est := h.EstimateOffloadBytes(busy); est != 4000*kernels.UpdateBytes+4*kernels.PropertyBytes {
		t.Errorf("busy node without statistics: estimate %v, want the no-dedup bound", est)
	}
	if h.Choose(&sim.View{Pool: busy}).Offload {
		t.Error("busy node without statistics offloaded at its no-dedup bound")
	}
	if got := (PartitionHeuristic{}).Choose(&sim.View{}); got.Nodes == nil || len(got.Nodes) != 0 {
		t.Errorf("no nodes: Choose = %+v, want an empty per-node mask", got)
	}
}
