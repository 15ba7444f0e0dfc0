package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/store"
)

func simGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Community(1200, 12, 8, 0.85, gen.Config{Seed: 17, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hashAssign(t testing.TB, g *graph.Graph, k int) *partition.Assignment {
	t.Helper()
	a, err := partition.Hash{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// allEngines is every engine shape on one pool width.
func allEngines(parts int) []Engine {
	topo := DefaultTopology(2, parts)
	return []Engine{
		&Distributed{Topo: topo},
		&DistributedNDP{Topo: topo},
		&Disaggregated{Topo: topo},
		&DisaggregatedNDP{Topo: topo},
		&DisaggregatedNDP{Topo: topo, InNetworkAggregation: true},
	}
}

// execPrice executes k once under cfg and prices the trace under e: one
// architecture's whole run.
func execPrice(e Engine, g *graph.Graph, k kernels.Kernel, cfg ExecConfig) (*Run, error) {
	t, err := Execute(context.Background(), g, k, cfg)
	if err != nil {
		return nil, err
	}
	return e.Price(t)
}

func valuesEqual(t *testing.T, engine string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", engine, len(got), len(want))
	}
	for i := range got {
		if math.IsInf(got[i], 1) && math.IsInf(want[i], 1) {
			continue
		}
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("%s: value[%d] = %g, want %g (diff %g)", engine, i, got[i], want[i], d)
		}
	}
}

// TestEnginesMatchSerialReference is the central correctness property: all
// simulated architectures execute identical kernel semantics; only the
// accounting differs.
func TestEnginesMatchSerialReference(t *testing.T) {
	g := simGraph(t)
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			ref, err := kernels.RunSerial(g, k)
			if err != nil {
				t.Fatal(err)
			}
			// Sum-aggregation order differs (partition-grouped traversal),
			// so PageRank tolerates rounding noise; min/max kernels are
			// order-independent and must match exactly.
			tol := 0.0
			if k.Traits().Agg == kernels.AggSum && k.Traits().UsesFloatingPoint {
				tol = 1e-12
			}
			a := hashAssign(t, g, 8)
			for _, e := range allEngines(8) {
				run, err := execPrice(e, g, k, ExecConfig{Assign: a})
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				valuesEqual(t, e.Name(), run.Result.Values, ref.Values, tol)
				if run.Result.Iterations != ref.Iterations {
					t.Errorf("%s: iterations %d vs serial %d", e.Name(), run.Result.Iterations, ref.Iterations)
				}
			}
		})
	}
}

func TestRecordInvariants(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	for _, e := range allEngines(8) {
		for _, kn := range []string{"pagerank", "bfs", "cc"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			run, err := execPrice(e, g, k, ExecConfig{Assign: a})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range run.Records {
				if rec.FrontierSize <= 0 {
					t.Errorf("%s/%s it%d: empty frontier recorded", e.Name(), kn, rec.Iteration)
				}
				if rec.PartialUpdates < rec.DistinctDsts {
					t.Errorf("%s/%s it%d: partials %d < distinct dsts %d", e.Name(), kn, rec.Iteration, rec.PartialUpdates, rec.DistinctDsts)
				}
				if rec.RemotePartialUpdates > rec.PartialUpdates {
					t.Errorf("%s/%s it%d: remote partials exceed partials", e.Name(), kn, rec.Iteration)
				}
				if rec.PartialUpdates > rec.ActiveEdges {
					t.Errorf("%s/%s it%d: partials %d exceed active edges %d", e.Name(), kn, rec.Iteration, rec.PartialUpdates, rec.ActiveEdges)
				}
				if rec.CrossEdges > rec.ActiveEdges {
					t.Errorf("%s/%s it%d: cross edges exceed active edges", e.Name(), kn, rec.Iteration)
				}
				if rec.EdgeFetchBytes != rec.ActiveEdges*kernels.EdgeBytes {
					t.Errorf("%s/%s it%d: edge fetch bytes inconsistent", e.Name(), kn, rec.Iteration)
				}
				if rec.UpdateMoveBytes != rec.PartialUpdates*kernels.UpdateBytes {
					t.Errorf("%s/%s it%d: update bytes inconsistent", e.Name(), kn, rec.Iteration)
				}
				if rec.AggregatedMoveBytes > 0 && rec.AggregatedMoveBytes > rec.UpdateMoveBytes {
					t.Errorf("%s/%s it%d: aggregation increased bytes", e.Name(), kn, rec.Iteration)
				}
				if rec.DataMovementBytes < 0 || rec.EstimatedSeconds <= 0 {
					t.Errorf("%s/%s it%d: nonpositive accounting", e.Name(), kn, rec.Iteration)
				}
			}
			if run.TotalDataMovementBytes <= 0 {
				t.Errorf("%s/%s: no movement recorded", e.Name(), kn)
			}
		}
	}
}

func TestAggregationNeverIncreasesMovement(t *testing.T) {
	g := simGraph(t)
	topo := DefaultTopology(2, 16)
	a := hashAssign(t, g, 16)
	k, err := kernels.ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := execPrice(&DisaggregatedNDP{Topo: topo, InNetworkAggregation: true}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalDataMovementBytes > plain.TotalDataMovementBytes {
		t.Errorf("aggregation increased movement: %d > %d", agg.TotalDataMovementBytes, plain.TotalDataMovementBytes)
	}
	valuesEqual(t, "inc-agg", agg.Result.Values, plain.Result.Values, 0)
}

func TestSwitchBufferLimitsAggregation(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 16)
	k, err := kernels.ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	unlimited := DefaultTopology(2, 16)
	limited := DefaultTopology(2, 16)
	limited.SwitchBufferEntries = 64 // far below the distinct-dst count
	u, err := execPrice(&DisaggregatedNDP{Topo: unlimited, InNetworkAggregation: true}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	l, err := execPrice(&DisaggregatedNDP{Topo: limited, InNetworkAggregation: true}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalDataMovementBytes <= u.TotalDataMovementBytes {
		t.Errorf("tiny switch buffer should reduce aggregation benefit: limited %d <= unlimited %d",
			l.TotalDataMovementBytes, u.TotalDataMovementBytes)
	}
}

// TestNDPReducesMovementOnHighDegreeGraph reproduces the Figure 5 "win"
// case: on a dense social graph, shipping per-destination updates beats
// shipping edge lists.
func TestNDPReducesMovementOnHighDegreeGraph(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	noNDP, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	ndpRun, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if ndpRun.TotalDataMovementBytes >= noNDP.TotalDataMovementBytes {
		t.Errorf("NDP offload should win on twitter7 stand-in: %d >= %d",
			ndpRun.TotalDataMovementBytes, noNDP.TotalDataMovementBytes)
	}
}

// TestNDPHurtsOnLowDegreeGraph reproduces the Figure 5 wiki-Talk case:
// 16-byte updates outweigh 8-byte edges when frontier fan-out is tiny.
func TestNDPHurtsOnLowDegreeGraph(t *testing.T) {
	g, err := gen.WikiTalk.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	noNDP, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	ndpRun, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if ndpRun.TotalDataMovementBytes <= noNDP.TotalDataMovementBytes {
		t.Errorf("NDP offload should lose on wiki-talk stand-in: %d <= %d",
			ndpRun.TotalDataMovementBytes, noNDP.TotalDataMovementBytes)
	}
}

func TestDistributedHasHigherSyncThanDisaggregated(t *testing.T) {
	g := simGraph(t)
	const parts = 16
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	dist, err := execPrice(&Distributed{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	disagg, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if dist.TotalSyncEvents <= disagg.TotalSyncEvents {
		t.Errorf("distributed sync %d should exceed disaggregated NDP %d",
			dist.TotalSyncEvents, disagg.TotalSyncEvents)
	}
}

func TestDistributedNDPFasterButSameMovement(t *testing.T) {
	g := simGraph(t)
	const parts = 8
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	dist, err := execPrice(&Distributed{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	dndp, err := execPrice(&DistributedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	// NDP inside nodes does not change inter-node movement (Section III-B)...
	if dndp.TotalDataMovementBytes != dist.TotalDataMovementBytes {
		t.Errorf("distributed NDP changed inter-node movement: %d vs %d",
			dndp.TotalDataMovementBytes, dist.TotalDataMovementBytes)
	}
	// ...but accelerates traversal and overlaps communication.
	if dndp.TotalSeconds >= dist.TotalSeconds {
		t.Errorf("distributed NDP not faster: %.6f >= %.6f", dndp.TotalSeconds, dist.TotalSeconds)
	}
}

func TestOffloadPolicies(t *testing.T) {
	g := simGraph(t)
	const parts = 8
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)

	always, err := execPrice(&DisaggregatedNDP{Topo: topo, Policy: AlwaysOffload{}}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	never, err := execPrice(&DisaggregatedNDP{Topo: topo, Policy: NeverOffload{}}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range always.Records {
		if !rec.Offloaded {
			t.Error("AlwaysOffload produced non-offloaded iteration")
		}
	}
	for _, rec := range never.Records {
		if rec.Offloaded {
			t.Error("NeverOffload produced offloaded iteration")
		}
	}
	// Never-offload must equal the plain disaggregated engine's movement.
	plain, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if never.TotalDataMovementBytes != plain.TotalDataMovementBytes {
		t.Errorf("NeverOffload %d != Disaggregated %d", never.TotalDataMovementBytes, plain.TotalDataMovementBytes)
	}
}

// TestEngineInputValidation: Execute refuses an assignment it cannot
// grid the graph by; Price refuses a topology it cannot price the trace
// on, and a cached trace under every engine but Disaggregated, which
// prices the cache.
func TestEngineInputValidation(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	k := kernels.NewPageRank(3, 0.85)
	ctx := context.Background()

	if _, err := Execute(ctx, g, k, ExecConfig{}); err == nil {
		t.Error("executed with a nil assignment")
	}
	short := &partition.Assignment{Parts: a.Parts[:len(a.Parts)-1], K: a.K}
	if _, err := Execute(ctx, g, k, ExecConfig{Assign: short}); err == nil {
		t.Error("executed with an assignment that misses a vertex")
	}

	tr, err := Execute(ctx, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Disaggregated{Topo: DefaultTopology(0, 8)}).Price(tr); err == nil {
		t.Error("priced on zero compute nodes")
	}
	if _, err := (&Disaggregated{Topo: DefaultTopology(2, 4)}).Price(tr); err == nil {
		t.Error("priced an 8-part trace on 4 memory nodes")
	}

	cached, err := Execute(ctx, g, k, ExecConfig{Assign: a, CacheBytes: g.NumEdges() * kernels.EdgeBytes / 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allEngines(8) {
		run, err := e.Price(cached)
		if e.Name() != "disaggregated" {
			if err == nil || !strings.Contains(err.Error(), "edge cache") {
				t.Errorf("%s priced a cached trace: %v", e.Name(), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("disaggregated refused a cached trace: %v", err)
		}
		var hits int64
		for _, rec := range run.Records {
			hits += rec.CachedEdgeBytes
		}
		if hits <= 0 {
			t.Error("disaggregated priced a cached trace with no CachedEdgeBytes")
		}
	}
}

func TestUnsupportedKernelFallsBack(t *testing.T) {
	g := simGraph(t)
	const parts = 4
	topo := DefaultTopology(2, parts)
	topo.MemDevice.FP = 0 // ndp.None: device cannot run FP kernels
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(3, 0.85)
	run, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if run.OffloadSupported {
		t.Error("FP-less device claims pagerank support")
	}
	for _, rec := range run.Records {
		if rec.Offloaded {
			t.Error("offloaded despite unsupported kernel")
		}
	}
	// Results still correct via host fallback.
	ref, err := kernels.RunSerial(g, k)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, "fallback", run.Result.Values, ref.Values, 1e-12)
}

func TestMovementSeriesMatchesRecords(t *testing.T) {
	// The per-iteration movement (the series Figure 7 plots) sums to the
	// run's total, one entry per iteration.
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	run, err := execPrice(&Disaggregated{Topo: DefaultTopology(2, 8)}, g, kernels.NewBFS(0), ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Records) != run.Result.Iterations {
		t.Fatalf("records %d != iterations %d", len(run.Records), run.Result.Iterations)
	}
	var sum int64
	for _, rec := range run.Records {
		sum += rec.DataMovementBytes
	}
	if sum != run.TotalDataMovementBytes {
		t.Errorf("series sum %d != total %d", sum, run.TotalDataMovementBytes)
	}
}

func TestMirrorCountsMatchEvaluate(t *testing.T) {
	// The execution's static mirror counts must agree with the partition
	// package's independent mirror computation.
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	st, err := computeStatics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range st.mirrors {
		total += int64(c)
	}
	q := partition.Evaluate(g, a)
	if total != q.Mirrors {
		t.Errorf("execution mirrors %d != partition.Evaluate %d", total, q.Mirrors)
	}
}

// TestStaticsMatchPairReference holds computeStatics' reach masks to the
// definition — a set of (destination, partition) pairs — on generated
// graphs, at partition counts on either side of the mask's word
// boundaries.
func TestStaticsMatchPairReference(t *testing.T) {
	type pair struct {
		dst  graph.VertexID
		part int32
	}
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := gen.ErdosRenyi(300, 2400, gen.Config{Seed: seed, DropSelfLoops: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, K := range []int{1, 2, 16, 64, 65, 130} {
			a := hashAssign(t, g, K)
			pairs := map[pair]bool{}
			cross := make([]int32, g.NumVertices())
			for v := range cross {
				for _, dst := range g.Neighbors(graph.VertexID(v)) {
					pairs[pair{dst, a.Parts[v]}] = true
					if a.Parts[dst] != a.Parts[v] {
						cross[v]++
					}
				}
			}
			perPart, mirrorCount := make([]int64, K), make([]int32, g.NumVertices())
			for pr := range pairs {
				perPart[pr.part]++
				if a.Parts[pr.dst] != pr.part {
					mirrorCount[pr.dst]++
				}
			}
			st, err := computeStatics(g, a)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.crossDeg, cross) {
				t.Fatalf("seed %d K=%d: crossDeg differs from the reference", seed, K)
			}
			if !reflect.DeepEqual(st.perPart, perPart) || st.partials != int64(len(pairs)) {
				t.Fatalf("seed %d K=%d: static partials %v (total %d), reference %v (total %d)",
					seed, K, st.perPart, st.partials, perPart, len(pairs))
			}
			if !reflect.DeepEqual(st.mirrors, mirrorCount) {
				t.Fatalf("seed %d K=%d: mirror counts differ from the reference", seed, K)
			}
		}
	}
}

// TestStaticsPinEachSegmentOnce holds the static sweep over an
// out-of-core container to the one over the graph it encodes, reading
// every segment exactly once and releasing every pin.
func TestStaticsPinEachSegmentOnce(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	want, err := computeStatics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	data, err := store.EncodeGraph(g, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBytes(data, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := computeStatics(st, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("statics over the container differ from the graph's")
	}
	if s := st.Stats(); s.Misses != int64(st.NumSegments()) || s.Hits != 0 || s.Pins != 0 {
		t.Fatalf("stats %+v over %d segments, want each read once and no pin left", s, st.NumSegments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidate(t *testing.T) {
	good := DefaultTopology(2, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("default topology invalid: %v", err)
	}
	bad := good
	bad.MemoryNodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero memory nodes")
	}
	// 0 means unlimited; a negative buffer means nothing and must not
	// run as 0.
	bad = good
	bad.SwitchBufferEntries = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted a negative switch buffer")
	}
}

func TestPartialUpdatesGrowWithPartitions(t *testing.T) {
	// Figure 6's driving effect: more partitions => more partial updates.
	g := simGraph(t)
	k := kernels.NewPageRank(3, 0.85)
	var prevPartials int64
	for _, parts := range []int{2, 8, 32} {
		topo := DefaultTopology(2, parts)
		a := hashAssign(t, g, parts)
		run, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
		if err != nil {
			t.Fatal(err)
		}
		var partials int64
		for _, rec := range run.Records {
			partials += rec.PartialUpdates
		}
		if partials < prevPartials {
			t.Errorf("partials decreased with more partitions: %d parts -> %d", parts, partials)
		}
		prevPartials = partials
	}
}

func TestEnergyAccounting(t *testing.T) {
	g := simGraph(t)
	k := kernels.NewPageRank(5, 0.85)
	a := hashAssign(t, g, 8)
	for _, e := range allEngines(8) {
		run, err := execPrice(e, g, k, ExecConfig{Assign: a})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if run.TotalEnergyJoules <= 0 {
			t.Errorf("%s: no energy recorded", e.Name())
		}
		var sum float64
		for _, rec := range run.Records {
			if rec.EnergyJoules <= 0 {
				t.Errorf("%s it%d: nonpositive energy", e.Name(), rec.Iteration)
			}
			sum += rec.EnergyJoules
		}
		if diff := sum - run.TotalEnergyJoules; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: energy totals inconsistent: %g vs %g", e.Name(), sum, run.TotalEnergyJoules)
		}
	}
}

func TestNDPSavesEnergyOnDenseGraph(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	host, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	near, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if near.TotalEnergyJoules >= host.TotalEnergyJoules {
		t.Errorf("NDP energy %g not below host energy %g", near.TotalEnergyJoules, host.TotalEnergyJoules)
	}
}

func TestMixedOracleBoundInvariants(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 8)
	run, err := execPrice(&DisaggregatedNDP{Topo: DefaultTopology(2, 8)}, g, kernels.NewBFS(0), ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range run.Records {
		if len(rec.PerPartition) != 8 {
			t.Fatalf("it%d: %d partition records, want 8", rec.Iteration, len(rec.PerPartition))
		}
		var edges, partials, activated, mixed int64
		for _, p := range rec.PerPartition {
			edges += p.EdgeBytes
			partials += p.PartialUpdates
			activated += p.Activated
			mixed += min(p.OffloadCost(), p.EdgeBytes)
		}
		if edges != rec.EdgeFetchBytes {
			t.Errorf("it%d: partition edge bytes %d != total %d", rec.Iteration, edges, rec.EdgeFetchBytes)
		}
		if partials != rec.PartialUpdates {
			t.Errorf("it%d: partition partials %d != total %d", rec.Iteration, partials, rec.PartialUpdates)
		}
		if activated != rec.NextFrontierSize {
			t.Errorf("it%d: partition activated %d != next frontier %d", rec.Iteration, activated, rec.NextFrontierSize)
		}
		// The per-partition bound is at or below both pure strategies.
		if mixed > rec.EdgeFetchBytes {
			t.Errorf("it%d: mixed bound %d above pure fetch %d", rec.Iteration, mixed, rec.EdgeFetchBytes)
		}
		if mixed > rec.UpdateMoveBytes+rec.WritebackBytes {
			t.Errorf("it%d: mixed bound %d above pure offload %d", rec.Iteration, mixed, rec.UpdateMoveBytes+rec.WritebackBytes)
		}
	}
}

func TestEdgeCacheReducesMovement(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	var prev int64 = 1 << 62
	totalEdgeBytes := g.NumEdges() * kernels.EdgeBytes
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
		run, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a, CacheBytes: int64(frac * float64(totalEdgeBytes))})
		if err != nil {
			t.Fatal(err)
		}
		if run.TotalDataMovementBytes > prev {
			t.Errorf("cache fraction %.2f increased movement: %d > %d", frac, run.TotalDataMovementBytes, prev)
		}
		prev = run.TotalDataMovementBytes
	}
	// A full cache eliminates interconnect traffic entirely.
	if prev != 0 {
		t.Errorf("full cache still moved %d bytes", prev)
	}
}

func TestEdgeCachePinsHottestVertices(t *testing.T) {
	// On a skewed graph a small cache absorbs a disproportionate share of
	// traffic: caching 10% of edge bytes (the hubs) must cut PageRank
	// movement by well over 10%.
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	topo := DefaultTopology(2, parts)
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(3, 0.85)
	base, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	small, err := execPrice(&Disaggregated{Topo: topo}, g, k, ExecConfig{Assign: a, CacheBytes: g.NumEdges() * kernels.EdgeBytes / 10})
	if err != nil {
		t.Fatal(err)
	}
	saved := float64(base.TotalDataMovementBytes-small.TotalDataMovementBytes) / float64(base.TotalDataMovementBytes)
	if saved < 0.095 {
		t.Errorf("10%% cache saved only %.1f%%", 100*saved)
	}
	// Results unchanged by caching.
	valuesEqual(t, "cache", small.Result.Values, base.Result.Values, 0)
}

func TestEnginesEquivalenceProperty(t *testing.T) {
	// Randomized cross-engine agreement: for random graphs, partition
	// counts, and kernels, every architecture computes what the serial
	// reference computes.
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(200, 900, gen.Config{Seed: seed, Weighted: true, DropSelfLoops: true})
		if err != nil {
			return false
		}
		parts := 2 + int(seed%7)
		a, err := partition.Hash{}.Partition(g, parts)
		if err != nil {
			return false
		}
		topo := DefaultTopology(2, parts)
		ks := []kernels.Kernel{
			kernels.NewBFS(graph.VertexID(seed % uint64(g.NumVertices()))),
			kernels.NewConnectedComponents(),
			kernels.NewPageRank(4, 0.85),
		}
		engines := []Engine{
			&Distributed{Topo: topo},
			&Disaggregated{Topo: topo},
			&DisaggregatedNDP{Topo: topo, InNetworkAggregation: true},
		}
		for _, k := range ks {
			ref, err := kernels.RunSerial(g, k)
			if err != nil {
				return false
			}
			tol := 0.0
			if k.Traits().Agg == kernels.AggSum {
				tol = 1e-12
			}
			for _, e := range engines {
				run, err := execPrice(e, g, k, ExecConfig{Assign: a})
				if err != nil {
					return false
				}
				for v := range ref.Values {
					x, y := run.Result.Values[v], ref.Values[v]
					if math.IsInf(x, 1) && math.IsInf(y, 1) {
						continue
					}
					if math.Abs(x-y) > tol {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func TestTimeModelMonotonicity(t *testing.T) {
	g := simGraph(t)
	const parts = 8
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	base := DefaultTopology(2, parts)
	baseRun, err := execPrice(&DisaggregatedNDP{Topo: base}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	// More compute nodes => no slower (parallel links and hosts).
	wide := base
	wide.ComputeNodes = 8
	wideRun, err := execPrice(&DisaggregatedNDP{Topo: wide}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if wideRun.TotalSeconds > baseRun.TotalSeconds {
		t.Errorf("more compute nodes slowed the run: %g > %g", wideRun.TotalSeconds, baseRun.TotalSeconds)
	}
	// Time model changes never affect movement.
	if wideRun.TotalDataMovementBytes != baseRun.TotalDataMovementBytes {
		t.Error("compute node count changed byte accounting")
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 4)
	run, err := execPrice(&DisaggregatedNDP{Topo: DefaultTopology(2, 4)}, g, kernels.NewBFS(0), ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, run.Records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(run.Records)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(run.Records)+1)
	}
	if !strings.HasPrefix(lines[0], "iteration,frontier") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != strings.Count(lines[0], ",") {
			t.Errorf("column count mismatch in %q", line)
		}
	}
}
