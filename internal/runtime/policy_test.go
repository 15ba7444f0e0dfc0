package runtime

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/sim"
)

func runWithPolicy(t testing.TB, g *graph.Graph, k kernels.Kernel, parts int, pol sim.OffloadPolicy, aggregate bool) *sim.Run {
	t.Helper()
	a, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return runOn(t, sim.DefaultTopology(2, parts), a, g, k, pol, aggregate)
}

func runOn(t testing.TB, topo sim.Topology, a *partition.Assignment, g *graph.Graph, k kernels.Kernel, pol sim.OffloadPolicy, aggregate bool) *sim.Run {
	t.Helper()
	run, err := (&sim.DisaggregatedNDP{Topo: topo, Assign: a, Policy: pol, InNetworkAggregation: aggregate}).Run(context.Background(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestOracleIsLowerBound(t *testing.T) {
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 9, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, aggregate := range []bool{false, true} {
		for _, kn := range []string{"pagerank", "bfs", "cc"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			oracle := runWithPolicy(t, g, k, 8, Oracle{}, aggregate)
			always := runWithPolicy(t, g, k, 8, sim.AlwaysOffload{}, aggregate)
			never := runWithPolicy(t, g, k, 8, sim.NeverOffload{}, aggregate)
			if oracle.TotalDataMovementBytes > always.TotalDataMovementBytes {
				t.Errorf("%s agg=%v: oracle %d > always %d", kn, aggregate, oracle.TotalDataMovementBytes, always.TotalDataMovementBytes)
			}
			if oracle.TotalDataMovementBytes > never.TotalDataMovementBytes {
				t.Errorf("%s agg=%v: oracle %d > never %d", kn, aggregate, oracle.TotalDataMovementBytes, never.TotalDataMovementBytes)
			}
		}
	}

	// A heterogeneous pool (every odd memory node lacks FP) forces
	// per-partition accounting, which gates each partition's decision by
	// its device: the oracle's global decision must reach the partitions.
	g, err = gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Hash{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.DefaultTopology(2, 8)
	topo.MemDevices = make([]ndp.Device, 8)
	for p := range topo.MemDevices {
		topo.MemDevices[p] = ndp.DefaultMemoryDevice()
		if p%2 == 1 {
			topo.MemDevices[p] = ndp.Device{Name: "pnm-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full}
		}
	}
	k := kernels.NewPageRank(5, 0.85)
	oracle := runOn(t, topo, a, g, k, Oracle{}, false)
	never := runOn(t, topo, a, g, k, sim.NeverOffload{}, false)
	if oracle.TotalDataMovementBytes >= never.TotalDataMovementBytes {
		t.Errorf("heterogeneous pagerank: oracle %d, never %d: the oracle never offloaded",
			oracle.TotalDataMovementBytes, never.TotalDataMovementBytes)
	}
}

func TestOraclePicksMinPerIteration(t *testing.T) {
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 9, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, aggregate := range []bool{false, true} {
		for _, kn := range []string{"bfs", "cc"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			run := runWithPolicy(t, g, k, 8, Oracle{}, aggregate)
			for _, rec := range run.Records {
				updates := rec.UpdateMoveBytes
				if aggregate {
					updates = rec.AggregatedMoveBytes
				}
				min := rec.EdgeFetchBytes
				if ndpCost := updates + rec.WritebackBytes; ndpCost < min {
					min = ndpCost
				}
				if rec.DataMovementBytes != min {
					t.Errorf("%s agg=%v it%d: oracle moved %d, min is %d (offloaded=%v)",
						kn, aggregate, rec.Iteration, rec.DataMovementBytes, min, rec.Offloaded)
				}
			}
		}
	}
}

func TestHeuristicTracksOracle(t *testing.T) {
	// The dynamic heuristic must stay within 25% of the oracle's movement
	// across kernels, graph shapes and both switch settings — and never be
	// worse than the worse static policy.
	datasets := []gen.Dataset{gen.Twitter7, gen.WikiTalk, gen.ComLiveJournal}
	for _, ds := range datasets {
		g, err := ds.Generate(0.125, gen.Config{Seed: 4, DropSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, aggregate := range []bool{false, true} {
			for _, kn := range []string{"pagerank", "bfs"} {
				k, err := kernels.ByName(kn)
				if err != nil {
					t.Fatal(err)
				}
				oracle := runWithPolicy(t, g, k, 8, Oracle{}, aggregate)
				dyn := runWithPolicy(t, g, k, 8, Heuristic{}, aggregate)
				always := runWithPolicy(t, g, k, 8, sim.AlwaysOffload{}, aggregate)
				never := runWithPolicy(t, g, k, 8, sim.NeverOffload{}, aggregate)
				worstStatic := always.TotalDataMovementBytes
				if never.TotalDataMovementBytes > worstStatic {
					worstStatic = never.TotalDataMovementBytes
				}
				if dyn.TotalDataMovementBytes > worstStatic {
					t.Errorf("%s/%s agg=%v: heuristic %d worse than worst static %d", ds.Name, kn, aggregate,
						dyn.TotalDataMovementBytes, worstStatic)
				}
				if float64(dyn.TotalDataMovementBytes) > 1.25*float64(oracle.TotalDataMovementBytes) {
					t.Errorf("%s/%s agg=%v: heuristic %d vs oracle %d (>25%% off)", ds.Name, kn, aggregate,
						dyn.TotalDataMovementBytes, oracle.TotalDataMovementBytes)
				}
			}
		}
	}
}

func TestHeuristicPrefersFetchOnWikiTalk(t *testing.T) {
	g, err := gen.WikiTalk.Generate(0.25, gen.Config{Seed: 4, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewPageRank(5, 0.85)
	run := runWithPolicy(t, g, k, 8, Heuristic{}, false)
	offloaded := 0
	for _, rec := range run.Records {
		if rec.Offloaded {
			offloaded++
		}
	}
	// Low-fanout graph: edge fetch is cheaper, the heuristic should
	// mostly (or always) decline to offload.
	if offloaded > len(run.Records)/2 {
		t.Errorf("heuristic offloaded %d/%d iterations on wiki-talk stand-in", offloaded, len(run.Records))
	}
}

func TestHeuristicPrefersOffloadOnTwitter(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.125, gen.Config{Seed: 4, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewPageRank(5, 0.85)
	run := runWithPolicy(t, g, k, 4, Heuristic{}, false)
	offloaded := 0
	for _, rec := range run.Records {
		if rec.Offloaded {
			offloaded++
		}
	}
	if offloaded < len(run.Records)/2 {
		t.Errorf("heuristic offloaded only %d/%d iterations on twitter7 stand-in", offloaded, len(run.Records))
	}
}

func TestHeuristicEstimateMonotoneInDegreeSum(t *testing.T) {
	h := Heuristic{}
	base := sim.PreStats{FrontierSize: 100, Partitions: 8, NumVertices: 10000}
	var prevEst float64
	for _, deg := range []int64{100, 1000, 10000, 100000} {
		s := base
		s.FrontierDegreeSum = deg
		est := h.EstimateOffloadBytes(s)
		if est <= prevEst {
			t.Errorf("estimate not increasing: deg=%d est=%f prev=%f", deg, est, prevEst)
		}
		prevEst = est
	}
}

func TestHeuristicAggregationLowersEstimate(t *testing.T) {
	s := sim.PreStats{FrontierSize: 1000, FrontierDegreeSum: 500000, Partitions: 32, NumVertices: 10000}
	plain := Heuristic{}.EstimateOffloadBytes(s)
	s.SwitchAggregates = true
	agg := Heuristic{}.EstimateOffloadBytes(s)
	if agg >= plain {
		t.Errorf("aggregation estimate %f >= plain %f", agg, plain)
	}
}

func TestHeuristicZeroInputs(t *testing.T) {
	h := Heuristic{}
	if est := h.EstimateOffloadBytes(sim.PreStats{}); est != 0 {
		t.Errorf("empty stats estimate = %f, want 0", est)
	}
	if h.Decide(sim.PreStats{}) {
		t.Error("empty stats should not offload")
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{Threshold: 10}
	high := sim.PreStats{FrontierSize: 10, FrontierDegreeSum: 500, Partitions: 4}
	low := sim.PreStats{FrontierSize: 10, FrontierDegreeSum: 50, Partitions: 4}
	if !p.Decide(high) {
		t.Error("rejected high-degree frontier")
	}
	if p.Decide(low) {
		t.Error("accepted low-degree frontier")
	}
	if p.Decide(sim.PreStats{}) {
		t.Error("accepted empty frontier")
	}
	// Default threshold scales with partition count.
	d := ThresholdPolicy{}
	s := sim.PreStats{FrontierSize: 10, FrontierDegreeSum: 100, Partitions: 4} // avg 10 > 8
	if !d.Decide(s) {
		t.Error("default threshold rejected avg degree 10 with 4 partitions")
	}
	s.Partitions = 16 // threshold 32 > 10
	if d.Decide(s) {
		t.Error("default threshold accepted avg degree 10 with 16 partitions")
	}
}

func TestPolicyNames(t *testing.T) {
	if (Heuristic{}).Name() != "heuristic" {
		t.Error("heuristic name")
	}
	if (Oracle{}).Name() != "oracle" {
		t.Error("oracle name")
	}
	if (ThresholdPolicy{}).Name() == "" {
		t.Error("threshold name")
	}
}

// TestPoliciesOnDegenerateStats pins every offload policy's decision on
// the degenerate PreStats shapes an engine can legally produce — an
// empty frontier, a zero-width pool, no vertex count — and asserts no NaN sneaks into the
// byte estimates. A policy must degrade to "don't offload" (or a finite
// estimate), never divide by zero.
func TestPoliciesOnDegenerateStats(t *testing.T) {
	empty := sim.PreStats{Partitions: 8, NumVertices: 100}
	noPool := sim.PreStats{FrontierSize: 10, FrontierDegreeSum: 50, NumVertices: 100}
	noVertices := sim.PreStats{FrontierSize: 10, FrontierDegreeSum: 50, Partitions: 8}
	cases := []struct {
		name   string
		policy sim.OffloadPolicy
		stats  sim.PreStats
		want   bool
	}{
		{"heuristic empty frontier", Heuristic{}, empty, false},
		{"heuristic zero partitions", Heuristic{}, noPool, false},
		{"heuristic zero vertices", Heuristic{}, noVertices, false},
		{"heuristic aggregating empty frontier", Heuristic{}, aggregating(empty), false},
		{"threshold empty frontier", ThresholdPolicy{}, empty, false},
		{"threshold zero partitions", ThresholdPolicy{}, noPool, false},
		{"threshold explicit beats zero partitions", ThresholdPolicy{Threshold: 3}, noPool, true},
		{"partition-heuristic empty frontier", PartitionHeuristic{}, empty, false},
		{"partition-heuristic zero partitions", PartitionHeuristic{}, noPool, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Decide(tc.stats); got != tc.want {
				t.Errorf("Decide(%+v) = %v, want %v", tc.stats, got, tc.want)
			}
		})
	}
	for _, st := range []sim.PreStats{empty, noPool, noVertices, aggregating(empty), aggregating(noPool), aggregating(noVertices)} {
		if est := (Heuristic{}).EstimateOffloadBytes(st); math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Errorf("EstimateOffloadBytes(%+v) = %v, want finite non-negative", st, est)
		}
	}
}

// aggregating returns s as seen under a switch that aggregates into a
// small buffer.
func aggregating(s sim.PreStats) sim.PreStats {
	s.SwitchAggregates = true
	s.SwitchBufferEntries = 4
	return s
}
