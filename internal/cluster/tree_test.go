package cluster

import (
	"context"
	"math"
	"testing"

	"repro/internal/kernels"
)

func TestTreeTopologyCorrectResults(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	for _, kn := range []string{"pagerank", "bfs", "cc"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := kernels.RunSerial(g, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, fanIn := range []int{2, 3, 8} {
			out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: fanIn})
			if err != nil {
				t.Fatalf("%s fanIn=%d: %v", kn, fanIn, err)
			}
			tol := tolFor(k)
			for v := range ref.Values {
				x, y := out.Values[v], ref.Values[v]
				if math.IsInf(x, 1) && math.IsInf(y, 1) {
					continue
				}
				if d := math.Abs(x - y); d > tol {
					t.Fatalf("%s fanIn=%d: value[%d] = %g, serial %g", kn, fanIn, v, x, y)
				}
			}
		}
	}
}

func TestTreeLevelCount(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	k := kernels.NewPageRank(3, 0.85)
	// fanIn 2 over 8 memory nodes: 4 leaves -> 2 -> 1 root = 3 levels.
	out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.LevelBytes) != 3 {
		t.Fatalf("LevelBytes has %d levels, want 3", len(out.LevelBytes))
	}
	// Flat topology: one level.
	flat, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.LevelBytes) != 1 {
		t.Fatalf("flat LevelBytes has %d levels, want 1", len(flat.LevelBytes))
	}
}

func TestTreeAggregationCompressesPerLevel(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	k := kernels.NewPageRank(3, 0.85)
	out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each level merges updates for shared destinations, so the stream
	// can only shrink on the way up.
	for l := 1; l < len(out.LevelBytes); l++ {
		if out.LevelBytes[l] > out.LevelBytes[l-1] {
			t.Errorf("level %d emitted %d bytes, more than level %d's %d",
				l, out.LevelBytes[l], l-1, out.LevelBytes[l-1])
		}
	}
	// Strict compression must appear somewhere on a dense all-active run.
	first, last := out.LevelBytes[0], out.LevelBytes[len(out.LevelBytes)-1]
	if last >= first {
		t.Errorf("tree did not compress: leaf out %d, root out %d", first, last)
	}
}

func TestTreeRootMatchesFlatAggregation(t *testing.T) {
	// Hierarchical and flat aggregation see the same update multiset, so
	// the delivery to the compute nodes must be identical.
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	k := kernels.NewPageRank(3, 0.85)
	tree, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Traffic.SwitchToCompute != flat.Traffic.SwitchToCompute {
		t.Errorf("root delivery %d != flat delivery %d",
			tree.Traffic.SwitchToCompute, flat.Traffic.SwitchToCompute)
	}
	if tree.Traffic.MemToSwitch != flat.Traffic.MemToSwitch {
		t.Errorf("pool-side traffic differs: %d vs %d",
			tree.Traffic.MemToSwitch, flat.Traffic.MemToSwitch)
	}
}

func TestTreeWithoutAggregationPassesThrough(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 8)
	k := kernels.NewPageRank(3, 0.85)
	out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, TreeFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pass-through switches neither add nor remove updates.
	for l := 1; l < len(out.LevelBytes); l++ {
		if out.LevelBytes[l] != out.LevelBytes[0] {
			t.Errorf("pass-through level %d carried %d bytes, level 0 %d",
				l, out.LevelBytes[l], out.LevelBytes[0])
		}
	}
	if out.LevelBytes[0] != out.Traffic.MemToSwitch {
		t.Errorf("leaf out %d != pool traffic %d", out.LevelBytes[0], out.Traffic.MemToSwitch)
	}
}

func TestTreeDegenerateFanIns(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 3)
	k := kernels.NewBFS(0)
	ref, err := kernels.RunSerial(g, k)
	if err != nil {
		t.Fatal(err)
	}
	// fanIn larger than the pool, equal to it, and minimal.
	for _, fanIn := range []int{16, 3, 2} {
		out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: true, TreeFanIn: fanIn})
		if err != nil {
			t.Fatalf("fanIn=%d: %v", fanIn, err)
		}
		for v := range ref.Values {
			x, y := out.Values[v], ref.Values[v]
			if math.IsInf(x, 1) && math.IsInf(y, 1) {
				continue
			}
			if x != y {
				t.Fatalf("fanIn=%d: value[%d] = %g, want %g", fanIn, v, x, y)
			}
		}
	}
}
