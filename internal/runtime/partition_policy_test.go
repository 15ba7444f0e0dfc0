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
			global := runWithPolicy(t, g, k, 8, Oracle{}, false)
			mixed := runWithPolicy(t, g, k, 8, MixedOracle{}, false)
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
	run := runWithPolicy(t, g, k, 8, MixedOracle{}, false)
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
	global, err := (&sim.DisaggregatedNDP{Topo: topo, Policy: Oracle{}}).Price(trace)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := (&sim.DisaggregatedNDP{Topo: topo, Policy: MixedOracle{}}).Price(trace)
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
			oracle := runWithPolicy(t, g, k, 8, MixedOracle{}, false)
			heur := runWithPolicy(t, g, k, 8, PartitionHeuristic{}, false)
			if float64(heur.TotalDataMovementBytes) > 1.35*float64(oracle.TotalDataMovementBytes) {
				t.Errorf("%s/%s: partition heuristic %d vs mixed oracle %d (>35%% off)",
					ds.Name, kn, heur.TotalDataMovementBytes, oracle.TotalDataMovementBytes)
			}
		}
	}
}

func TestPartitionHeuristicMaskLength(t *testing.T) {
	h := PartitionHeuristic{}
	parts := make([]sim.PreStats, 7)
	mask := h.DecidePartitions(parts)
	if len(mask) != 7 {
		t.Errorf("mask length %d, want 7", len(mask))
	}
	for _, m := range mask {
		if m {
			t.Error("empty partitions should not offload")
		}
	}
}

func TestPartitionHeuristicSkipsEmptyNodes(t *testing.T) {
	h := PartitionHeuristic{}
	parts := []sim.PreStats{
		{Partitions: 1, NumVertices: 1000, StaticPartialUpdates: 100},
		{Partitions: 1, NumVertices: 1000, FrontierSize: 100, FrontierDegreeSum: 100000, StaticPartialUpdates: 500},
	}
	mask := h.DecidePartitions(parts)
	if mask[0] {
		t.Error("idle memory node offloaded")
	}
	if !mask[1] {
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
	a := runWithPolicy(t, g, k, 8, MixedOracle{}, false)
	b := runWithPolicy(t, g, k, 8, sim.NeverOffload{}, false)
	for v := range a.Result.Values {
		if a.Result.Values[v] != b.Result.Values[v] {
			t.Fatalf("values diverge at %d", v)
		}
	}
}

func TestMixedPolicyNames(t *testing.T) {
	if (MixedOracle{}).Name() != "mixed-oracle" {
		t.Error("mixed-oracle name")
	}
	if (PartitionHeuristic{}).Name() != "partition-heuristic" {
		t.Error("partition-heuristic name")
	}
}

// TestDecidePartitionsDegenerate pins the per-partition heuristic on
// degenerate per-node views: empty nodes and an all-empty frontier never
// offload, and the mask length always matches the input.
func TestDecidePartitionsDegenerate(t *testing.T) {
	h := PartitionHeuristic{}
	idle := sim.PreStats{Partitions: 1}

	// All-empty frontier: every node idles.
	parts := []sim.PreStats{idle, idle, idle, idle}
	mask := h.DecidePartitions(parts)
	if len(mask) != 4 {
		t.Fatalf("mask length %d, want 4", len(mask))
	}
	for p, off := range mask {
		if off {
			t.Errorf("empty node %d chose offload", p)
		}
	}

	// One busy high-degree node among idle ones: only it may offload, and
	// a zero StaticPartialUpdates and NumVertices (no statistics) must not
	// produce NaN — the estimate falls back to the degree sum itself.
	parts[2] = sim.PreStats{Partitions: 1, FrontierSize: 4, FrontierDegreeSum: 4000}
	mask = h.DecidePartitions(parts)
	for p, off := range mask {
		if p != 2 && off {
			t.Errorf("idle node %d chose offload", p)
		}
	}

	// Zero-length input: no panic, empty mask.
	if got := h.DecidePartitions(nil); len(got) != 0 {
		t.Errorf("nil parts produced mask of length %d", len(got))
	}
}
