package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

func coreGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 11, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewDefaults(t *testing.T) {
	s, err := New(DisaggregatedNDP)
	if err != nil {
		t.Fatal(err)
	}
	if s.arch != DisaggregatedNDP {
		t.Errorf("arch = %v", s.arch)
	}
	topo := s.Topology()
	if topo.ComputeNodes != 2 || topo.MemoryNodes != 8 {
		t.Errorf("default topology %d/%d, want 2/8", topo.ComputeNodes, topo.MemoryNodes)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(DisaggregatedNDP, WithComputeNodes(0)); err == nil {
		t.Error("accepted zero compute nodes")
	}
	if _, err := New(Arch(99)); err == nil {
		t.Error("accepted unknown architecture")
	}
}

func TestRunAllArchitectures(t *testing.T) {
	g := coreGraph(t)
	k := kernels.NewPageRank(5, 0.85)
	ref, err := kernels.RunSerial(g, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range Architectures() {
		s, err := New(arch, WithMemoryNodes(8))
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Engine().Run(context.Background(), g, k, RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if run.TotalDataMovementBytes <= 0 {
			t.Errorf("%s: no movement recorded", arch)
		}
		series := run.MovementSeries()
		if len(series) != len(run.Records) {
			t.Errorf("%s: series length %d != records %d", arch, len(series), len(run.Records))
		}
		var sum int64
		for _, b := range series {
			sum += b
		}
		if sum != run.TotalDataMovementBytes {
			t.Errorf("%s: series sum %d != total %d", arch, sum, run.TotalDataMovementBytes)
		}
		for i := range run.Values {
			if d := math.Abs(run.Values[i] - ref.Values[i]); d > 1e-12 {
				t.Fatalf("%s: value[%d] off by %g", arch, i, d)
			}
		}
	}
}

func TestCompareIsTableIIOrdered(t *testing.T) {
	g := coreGraph(t)
	s, err := New(DisaggregatedNDP, WithMemoryNodes(16), WithPolicy(sim.AlwaysOffload{}))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Compare(context.Background(), g, kernels.NewPageRank(5, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("got %d runs", len(runs))
	}
	wantOrder := []string{"distributed", "distributed-ndp", "disaggregated", "disaggregated-ndp+inc"}
	for i, run := range runs {
		if run.Engine != wantOrder[i] {
			t.Errorf("runs[%d] = %s, want %s", i, run.Engine, wantOrder[i])
		}
	}
	// The paper's Table II: disaggregated NDP moves the least data among
	// the four architectures and syncs less than the distributed rows.
	dndp := runs[3]
	for i, run := range runs[:3] {
		if dndp.TotalDataMovementBytes > run.TotalDataMovementBytes {
			t.Errorf("disaggregated NDP moved more than %s: %d > %d",
				wantOrder[i], dndp.TotalDataMovementBytes, run.TotalDataMovementBytes)
		}
	}
	if dndp.TotalSyncEvents >= runs[0].TotalSyncEvents {
		t.Errorf("disaggregated NDP sync %d not below distributed %d",
			dndp.TotalSyncEvents, runs[0].TotalSyncEvents)
	}
}

func TestOptionsApply(t *testing.T) {
	topo := sim.DefaultTopology(4, 32)
	s, err := New(Disaggregated,
		WithTopology(topo),
		WithPartitioner(partition.Hash{}),
		WithPolicy(sim.Oracle{}),
		WithAggregation(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology().ComputeNodes != 4 || s.Topology().MemoryNodes != 32 {
		t.Errorf("topology option ignored: %+v", s.Topology())
	}
	g := coreGraph(t)
	a, err := s.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 32 {
		t.Errorf("partition K = %d, want 32", a.K)
	}
}

func TestRunWithAssignmentReuse(t *testing.T) {
	g := coreGraph(t)
	s, err := New(DisaggregatedNDP, WithMemoryNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := s.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Engine().Run(context.Background(), g, kernels.NewBFS(0), RunConfig{Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Engine().Run(context.Background(), g, kernels.NewConnectedComponents(), RunConfig{Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kernel == r2.Kernel {
		t.Error("kernel names collide")
	}
}

func TestArchString(t *testing.T) {
	names := map[Arch]string{
		Distributed:      "distributed",
		DistributedNDP:   "distributed-ndp",
		Disaggregated:    "disaggregated",
		DisaggregatedNDP: "disaggregated-ndp",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if Arch(42).String() == "" {
		t.Error("unknown arch string empty")
	}
}

func TestRunConcurrentMatchesSimulator(t *testing.T) {
	g := coreGraph(t)
	s, err := New(DisaggregatedNDP, WithMemoryNodes(8), WithPolicy(sim.AlwaysOffload{}))
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewPageRank(5, 0.85)
	simRun, err := s.Engine().Run(context.Background(), g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ConcurrentEngine().Run(context.Background(), g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Traffic.Total() != simRun.TotalDataMovementBytes {
		t.Errorf("concurrent traffic %d != simulated %d", out.Traffic.Total(), simRun.TotalDataMovementBytes)
	}
	for v := range simRun.Values {
		if d := math.Abs(out.Values[v] - simRun.Values[v]); d > 1e-9 {
			t.Fatalf("value[%d] differs by %g", v, d)
		}
	}
}

// TestRunConcurrentOptions drives the option-configured cluster: a tree
// fan-in and tight channel depth via options, and a seeded fault plan
// whose injected drops and crash must not change the computed values.
func TestRunConcurrentOptions(t *testing.T) {
	g := coreGraph(t)
	k := kernels.NewPageRank(5, 0.85)
	// The reference shares the faulty system's topology: tree depth
	// changes float association, so only the fault plan may differ.
	base, err := New(DisaggregatedNDP, WithMemoryNodes(6), WithTreeFanIn(2), WithChannelDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.ConcurrentEngine().Run(context.Background(), g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := New(DisaggregatedNDP, WithMemoryNodes(6),
		WithTreeFanIn(2),
		WithChannelDepth(8),
		WithFaultPlan(cluster.FaultPlan{
			Seed:   13,
			Update: cluster.LinkFaults{Drop: 0.15, Duplicate: 0.1},
			Crash:  map[int]int{1: 1},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faulty.ClusterConfig()
	if cfg.TreeFanIn != 2 || cfg.ChannelDepth != 8 || cfg.Fault.Seed != 13 {
		t.Fatalf("options did not reach cluster config: %+v", cfg)
	}
	out, err := faulty.ConcurrentEngine().Run(context.Background(), g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Values {
		if out.Values[v] != ref.Values[v] {
			t.Fatalf("value[%d] = %g under faults, fault-free %g", v, out.Values[v], ref.Values[v])
		}
	}
	if out.Faults.Drops == 0 || out.Faults.Crashes != 1 {
		t.Fatalf("fault plan not executed: %+v", out.Faults)
	}
}

// TestNewValidatesClusterOptions pins that nonsense cluster knobs fail
// at System construction, not at run time.
func TestNewValidatesClusterOptions(t *testing.T) {
	if _, err := New(DisaggregatedNDP, WithTreeFanIn(-1)); err == nil {
		t.Error("accepted negative tree fan-in")
	}
	if _, err := New(DisaggregatedNDP, WithTreeFanIn(1)); err == nil {
		t.Error("accepted tree fan-in 1, which is no topology")
	}
	if _, err := New(DisaggregatedNDP, WithChannelDepth(-4)); err == nil {
		t.Error("accepted negative channel depth")
	}
	bad := cluster.FaultPlan{Update: cluster.LinkFaults{Drop: 1.5}}
	if _, err := New(DisaggregatedNDP, WithFaultPlan(bad)); err == nil {
		t.Error("accepted fault plan with probability > 1")
	}
}

func TestRunConcurrentRejectsOtherArchitectures(t *testing.T) {
	g := coreGraph(t)
	s, err := New(Distributed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConcurrentEngine().Run(context.Background(), g, kernels.NewBFS(0), RunConfig{}); err == nil {
		t.Error("accepted concurrent execution of the distributed architecture")
	}
}

// TestCompareMatchesFreshSystems is the regression test for the clone
// bug: Compare's rows must be identical to running each architecture on
// a fresh per-arch New system (same topology, partitioner, and shared
// assignment), no matter which architecture the base system was built
// as. Before the fix, a non-DisaggregatedNDP base leaked aggregation=
// false into the DisaggregatedNDP clone and its row silently ran
// without in-network aggregation.
func TestCompareMatchesFreshSystems(t *testing.T) {
	g := coreGraph(t)
	k := kernels.NewPageRank(5, 0.85)
	for _, baseArch := range Architectures() {
		base, err := New(baseArch, WithMemoryNodes(8), WithPartitioner(partition.Hash{}))
		if err != nil {
			t.Fatal(err)
		}
		assign, err := base.Partition(g)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := base.Compare(context.Background(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, arch := range Architectures() {
			fresh, err := New(arch, WithMemoryNodes(8), WithPartitioner(partition.Hash{}))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Engine().Run(context.Background(), g, k, RunConfig{Assignment: assign})
			if err != nil {
				t.Fatal(err)
			}
			got := runs[i]
			if got.Engine != want.Engine {
				t.Fatalf("base %s: row %d engine %q, fresh %s system produced %q",
					baseArch, i, got.Engine, arch, want.Engine)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Errorf("base %s: %s row records differ from a fresh %s system",
					baseArch, got.Engine, arch)
			}
			if got.TotalDataMovementBytes != want.TotalDataMovementBytes {
				t.Errorf("base %s: %s row moved %d bytes, fresh system %d",
					baseArch, got.Engine, got.TotalDataMovementBytes, want.TotalDataMovementBytes)
			}
		}
	}
}

// TestCompareHonorsExplicitAggregation pins the other side of the fix:
// an explicit WithAggregation(false) must stick for the Compare clone
// rather than being overwritten by the per-arch default.
func TestCompareHonorsExplicitAggregation(t *testing.T) {
	g := coreGraph(t)
	k := kernels.NewPageRank(5, 0.85)
	s, err := New(Distributed, WithMemoryNodes(8), WithPartitioner(partition.Hash{}), WithAggregation(false))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Compare(context.Background(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs[3].Engine; got != "disaggregated-ndp" {
		t.Fatalf("explicit WithAggregation(false) ignored: row engine %q", got)
	}
}

// TestCompareParallelStatefulKernel drives Compare with a stateful
// kernel (per-run side state lives in the kernel value): the four rows
// price one execution and must still match fresh per-arch systems.
func TestCompareParallelStatefulKernel(t *testing.T) {
	g := coreGraph(t)
	s, err := New(Disaggregated, WithMemoryNodes(8), WithPartitioner(partition.Hash{}))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := s.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Compare(context.Background(), g, kernels.NewPageRankDelta(0.85, 1e-7))
	if err != nil {
		t.Fatal(err)
	}
	for i, arch := range Architectures() {
		fresh, err := New(arch, WithMemoryNodes(8), WithPartitioner(partition.Hash{}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Engine().Run(context.Background(), g, kernels.NewPageRankDelta(0.85, 1e-7), RunConfig{Assignment: assign})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs[i].Records, want.Records) {
			t.Errorf("stateful kernel: %s row differs from fresh system", runs[i].Engine)
		}
	}
}

// TestPriceOwnsItsValues: a pricing shares the trace's values and leaves
// the trace as Execute returned it — two pricings of one trace equal the
// architecture's own Run bit for bit — while every CompareWithAssignment
// row owns its values: a caller writing to one reaches neither the other
// rows nor a later pricing.
func TestPriceOwnsItsValues(t *testing.T) {
	ctx := context.Background()
	g := coreGraph(t)
	k := kernels.NewBFS(0)
	s, err := New(DisaggregatedNDP, WithMemoryNodes(8), WithPartitioner(partition.Hash{}))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Execute(ctx, g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := s.Execute(ctx, g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Engine().Run(ctx, g, k, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := s.Price(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pricing %d of one trace differs from Run", i+1)
		}
	}
	if !reflect.DeepEqual(tr, twin) {
		t.Fatal("pricing changed the trace")
	}

	assign, err := s.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.CompareWithAssignment(ctx, g, k, assign)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for v := range row.Values {
			row.Values[v] = math.NaN()
		}
		for _, other := range rows[i+1:] {
			if !reflect.DeepEqual(other.Values, want.Values) {
				t.Fatalf("writing to the %s row reached the %s row", row.Engine, other.Engine)
			}
		}
	}
	again, err := s.Price(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("a pricing after a caller wrote to every compared row differs from Run")
	}
	narrow, err := New(Distributed, WithMemoryNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := narrow.Price(tr); err == nil {
		t.Error("a 4-node system priced an 8-part trace")
	}
}
