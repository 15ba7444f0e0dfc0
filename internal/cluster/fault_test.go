package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// faultyPlan is the reference hostile plan used across the suite: lossy,
// duplicating, delaying links plus one memory-node crash mid-run.
func faultyPlan() FaultPlan {
	return FaultPlan{
		Seed:      7,
		Update:    LinkFaults{Drop: 0.2, Duplicate: 0.15, Delay: 0.1},
		Writeback: LinkFaults{Drop: 0.1, Duplicate: 0.1},
		Crash:     map[int]int{2: 1},
	}
}

func sameValues(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("%s: value[%d] = %g, want %g (bit-for-bit)", what, v, got[v], want[v])
		}
	}
}

// TestFaultEmptyPlanByteIdentical pins the zero-fault path: a Config
// carrying an empty FaultPlan (even with a nonzero seed — no probability
// is ever rolled) must produce an Outcome byte-identical to a Config with
// no plan at all, with every fault counter at zero. Combined with
// TestClusterTrafficMatchesSimulator, this keeps the empty-plan traffic
// accounting equal to sim.DisaggregatedNDP's analytical numbers.
func TestFaultEmptyPlanByteIdentical(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	for _, kn := range []string{"pagerank", "bfs"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{ComputeNodes: 3, Aggregate: true, TreeFanIn: 2}
		ref, err := Run(context.Background(), g, k, a, base)
		if err != nil {
			t.Fatal(err)
		}
		withPlan := base
		withPlan.Fault = FaultPlan{Seed: 99} // empty: no probabilities, no crashes
		if !withPlan.Fault.Empty() {
			t.Fatal("plan with only a seed should be empty")
		}
		out, err := Run(context.Background(), g, k, a, withPlan)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, kn, out.Values, ref.Values)
		if out.Iterations != ref.Iterations || out.Converged != ref.Converged {
			t.Fatalf("%s: iterations %d/%v, fault-free %d/%v",
				kn, out.Iterations, out.Converged, ref.Iterations, ref.Converged)
		}
		if out.Traffic != ref.Traffic {
			t.Fatalf("%s: traffic %+v, fault-free %+v", kn, out.Traffic, ref.Traffic)
		}
		if !reflect.DeepEqual(out.PerIteration, ref.PerIteration) {
			t.Fatalf("%s: per-iteration traffic diverged", kn)
		}
		if !reflect.DeepEqual(out.LevelBytes, ref.LevelBytes) {
			t.Fatalf("%s: level bytes %v, fault-free %v", kn, out.LevelBytes, ref.LevelBytes)
		}
		f := out.Faults
		if f.Drops != 0 || f.Duplicates != 0 || f.Delays != 0 || f.Retries != 0 ||
			f.Crashes != 0 || f.Redispatches != 0 || f.VirtualTicks != 0 {
			t.Fatalf("%s: empty plan injected faults: %+v", kn, f)
		}
		if f.Acks == 0 {
			t.Fatalf("%s: protocol ran but acknowledged nothing", kn)
		}
	}
}

// TestFaultInjectionConvergesToFaultFree is the tentpole's acceptance
// criterion: under drops, duplicates, delays, and a memory-node crash,
// the cluster still converges to exactly the fault-free run's values
// (and the serial engine's, within the usual association tolerance), and
// the Outcome reports the faults it survived.
func TestFaultInjectionConvergesToFaultFree(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	for _, kn := range []string{"pagerank", "sssp"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{ComputeNodes: 3, Aggregate: true, TreeFanIn: 2}
		ref, err := Run(context.Background(), g, k, a, base)
		if err != nil {
			t.Fatal(err)
		}
		faulty := base
		faulty.Fault = faultyPlan()
		out, err := Run(context.Background(), g, k, a, faulty)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, kn, out.Values, ref.Values)
		if out.Iterations != ref.Iterations || out.Converged != ref.Converged {
			t.Fatalf("%s: iterations %d/%v, fault-free %d/%v",
				kn, out.Iterations, out.Converged, ref.Iterations, ref.Converged)
		}
		serial, err := kernels.RunSerial(g, k)
		if err != nil {
			t.Fatal(err)
		}
		tol := tolFor(k)
		for v := range serial.Values {
			x, y := out.Values[v], serial.Values[v]
			if math.IsInf(x, 1) && math.IsInf(y, 1) {
				continue
			}
			if d := math.Abs(x - y); d > tol {
				t.Fatalf("%s: value[%d] = %g, serial %g", kn, v, x, y)
			}
		}
		f := out.Faults
		if f.Drops == 0 || f.Duplicates == 0 || f.Delays == 0 || f.Retries == 0 {
			t.Fatalf("%s: hostile plan injected nothing: %+v", kn, f)
		}
		if f.Crashes != 1 || f.Redispatches == 0 {
			t.Fatalf("%s: crash schedule not executed: %+v", kn, f)
		}
		if f.VirtualTicks == 0 {
			t.Fatalf("%s: retries and delays spent no virtual time", kn)
		}
		// Duplicates and retransmissions are real wire traffic: the
		// faulty run must carry at least the fault-free bytes.
		if out.Traffic.Total() < ref.Traffic.Total() {
			t.Fatalf("%s: faulty traffic %d below fault-free %d",
				kn, out.Traffic.Total(), ref.Traffic.Total())
		}
	}
}

// TestFaultDeterministicRuns extends the bit-for-bit invariant to faulty
// runs: two executions of the same seeded plan must agree on every field
// of the Outcome — values, traffic, fault counters, and the full metrics
// snapshot.
func TestFaultDeterministicRuns(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	k := kernels.NewPageRank(20, 0.85)
	cfg := Config{ComputeNodes: 3, Aggregate: true, TreeFanIn: 2, Fault: faultyPlan()}
	ref, err := Run(context.Background(), g, k, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 3; rerun++ {
		out, err := Run(context.Background(), g, k, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, "pagerank", out.Values, ref.Values)
		if !reflect.DeepEqual(out.PerIteration, ref.PerIteration) {
			t.Fatalf("rerun %d: per-iteration traffic diverged", rerun)
		}
		if !reflect.DeepEqual(out.LevelBytes, ref.LevelBytes) {
			t.Fatalf("rerun %d: level bytes %v, first run %v", rerun, out.LevelBytes, ref.LevelBytes)
		}
		if out.Faults != ref.Faults {
			t.Fatalf("rerun %d: fault stats %+v, first run %+v", rerun, out.Faults, ref.Faults)
		}
		if !reflect.DeepEqual(out.Counters, ref.Counters) {
			t.Fatalf("rerun %d: counters %v, first run %v", rerun, out.Counters, ref.Counters)
		}
	}
}

// TestFaultCrashRecovery drills the redispatch path: crashes at the very
// first iteration (recovery from the initial frontier), chained crashes
// in consecutive iterations (the adopting peer itself dies), and a
// frontier kernel whose active set shrinks — all must still match the
// serial engine exactly.
func TestFaultCrashRecovery(t *testing.T) {
	g := clusterGraph(t)
	a := clusterAssign(t, g, 6)
	serial, err := kernels.RunSerial(g, kernels.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	for name, crash := range map[string]map[int]int{
		"first-iteration": {3: 0},
		"chained":         {1: 1, 2: 2},
		"simultaneous":    {0: 1, 4: 1},
	} {
		for _, fanIn := range []int{0, 2} {
			cfg := Config{ComputeNodes: 3, TreeFanIn: fanIn, Fault: FaultPlan{Seed: 11, Crash: crash}}
			out, err := Run(context.Background(), g, kernels.NewBFS(0), a, cfg)
			if err != nil {
				t.Fatalf("%s fanin=%d: %v", name, fanIn, err)
			}
			sameValues(t, name, out.Values, serial.Values)
			if out.Faults.Crashes != int64(len(crash)) {
				t.Fatalf("%s fanin=%d: %d crashes recorded, want %d",
					name, fanIn, out.Faults.Crashes, len(crash))
			}
			if out.Faults.Redispatches < int64(len(crash)) {
				t.Fatalf("%s fanin=%d: only %d redispatches for %d crashes",
					name, fanIn, out.Faults.Redispatches, len(crash))
			}
		}
	}
}

// TestFaultPlanValidation covers the rejection surface: malformed
// probabilities and crash entries at Validate time, impossible crash
// schedules at Run time.
func TestFaultPlanValidation(t *testing.T) {
	bad := []FaultPlan{
		{Update: LinkFaults{Drop: 1.5}},
		{Writeback: LinkFaults{Duplicate: -0.1}},
		{Crash: map[int]int{-1: 0}},
		{Crash: map[int]int{0: -2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	if err := faultyPlan().Validate(); err != nil {
		t.Errorf("reference plan rejected: %v", err)
	}

	g := clusterGraph(t)
	a := clusterAssign(t, g, 3)
	// Crash index beyond the pool.
	cfg := Config{Fault: FaultPlan{Crash: map[int]int{7: 0}}}
	if _, err := Run(context.Background(), g, kernels.NewBFS(0), a, cfg); err == nil {
		t.Error("accepted crash of nonexistent memory node")
	}
	// Crashing every actor leaves no survivor.
	cfg = Config{Fault: FaultPlan{Crash: map[int]int{0: 0, 1: 1, 2: 2}}}
	if _, err := Run(context.Background(), g, kernels.NewBFS(0), a, cfg); err == nil {
		t.Error("accepted crash schedule with no surviving actor")
	}
}

// TestFaultConfigValidation covers the Config-level knob checks added
// alongside the fault plan.
func TestFaultConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ComputeNodes: -1},
		{TreeFanIn: -2},
		{ChannelDepth: -64},
		{Fault: FaultPlan{Update: LinkFaults{Drop: 7}}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config validated: %+v", cfg)
		}
	}
	if err := (Config{ComputeNodes: 2, TreeFanIn: 4, ChannelDepth: 8}).Validate(); err != nil {
		t.Errorf("sane config rejected: %v", err)
	}
	g := clusterGraph(t)
	a := clusterAssign(t, g, 3)
	if _, err := Run(context.Background(), g, kernels.NewBFS(0), a, Config{TreeFanIn: -1}); err == nil {
		t.Error("Run accepted negative TreeFanIn")
	}
}

// pinnedCounts is everything about one seeded run that batch composition
// decides: which transmissions the plan drops (a roll per link, iteration
// and sequence number), how many batches are acknowledged, the bytes each
// link class and tree level carried, and the float association behind
// every value.
type pinnedCounts struct {
	Drops, Retries, Acks, Crashes, Redispatches int64
	Traffic                                     Traffic
	LevelBytes                                  []int64
	Iterations                                  int
	ValuesHash                                  uint64
}

// TestFaultCountsPinned holds the actors to constants recorded from the
// map-and-sort driver (commit e7b7720): community graph, ldg, 16 memory
// nodes, 2 compute nodes, the benchmark's plan shape (5% drops on both
// link classes, memory node 1 crashing at iteration 1). The protocol cuts
// 512-update batches from ascending streams, so any change to what an
// actor stores that reorders, splits or merges a stream moves a sequence
// number, and with it a seeded drop, an ack count or a sum's association.
// PageRank keeps every vertex active (the values-by-rank path); BFS
// rebuilds the active sets from the write-back streams each iteration.
func TestFaultCountsPinned(t *testing.T) {
	g, err := gen.Community(6000, 12, 8, 0.85, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.LDG{}.Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	plan := FaultPlan{
		Seed:      42,
		Update:    LinkFaults{Drop: 0.05},
		Writeback: LinkFaults{Drop: 0.05},
		Crash:     map[int]int{1: 1},
	}
	want := map[string]pinnedCounts{
		"pagerank/fanin=0/aggregate=true":  {Drops: 135, Retries: 135, Acks: 2242, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 10254720, SwitchToCompute: 1919680, Writeback: 1925808}, LevelBytes: []int64{1919680}, Iterations: 20, ValuesHash: 0x6dac25782b9c1a9a},
		"pagerank/fanin=0/aggregate=false": {Drops: 183, Retries: 183, Acks: 3282, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 10254720, SwitchToCompute: 10254720, Writeback: 1925808}, LevelBytes: []int64{10254720}, Iterations: 20, ValuesHash: 0x6dac25782b9c1a9a},
		"pagerank/fanin=4/aggregate=true":  {Drops: 176, Retries: 176, Acks: 3042, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 10254720, SwitchToCompute: 1919680, Writeback: 1925808}, LevelBytes: []int64{6194880, 1919680}, Iterations: 20, ValuesHash: 0xadad24af76837e62},
		"pagerank/fanin=4/aggregate=false": {Drops: 263, Retries: 263, Acks: 4582, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 10254720, SwitchToCompute: 10254720, Writeback: 1925808}, LevelBytes: []int64{10254720, 10254720}, Iterations: 20, ValuesHash: 0x6dac25782b9c1a9a},
		"bfs/fanin=0/aggregate=true":       {Drops: 33, Retries: 33, Acks: 530, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 634448, SwitchToCompute: 265984, Writeback: 95984}, LevelBytes: []int64{265984}, Iterations: 9, ValuesHash: 0x827208448987af0},
		"bfs/fanin=0/aggregate=false":      {Drops: 35, Retries: 35, Acks: 576, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 634448, SwitchToCompute: 634448, Writeback: 95984}, LevelBytes: []int64{634448}, Iterations: 9, ValuesHash: 0x827208448987af0},
		"bfs/fanin=4/aggregate=true":       {Drops: 38, Retries: 38, Acks: 620, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 634448, SwitchToCompute: 265984, Writeback: 95984}, LevelBytes: []int64{504960, 265984}, Iterations: 9, ValuesHash: 0x827208448987af0},
		"bfs/fanin=4/aggregate=false":      {Drops: 40, Retries: 40, Acks: 681, Crashes: 1, Redispatches: 1, Traffic: Traffic{MemToSwitch: 634448, SwitchToCompute: 634448, Writeback: 95984}, LevelBytes: []int64{634448, 634448}, Iterations: 9, ValuesHash: 0x827208448987af0},
	}
	for _, kn := range []string{"pagerank", "bfs"} {
		k, err := kernels.ByName(kn)
		if err != nil {
			t.Fatal(err)
		}
		for _, fanIn := range []int{0, 4} {
			for _, aggregate := range []bool{true, false} {
				name := fmt.Sprintf("%s/fanin=%d/aggregate=%v", kn, fanIn, aggregate)
				out, err := Run(context.Background(), g, k, a, Config{ComputeNodes: 2, Aggregate: aggregate, TreeFanIn: fanIn, Fault: plan})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := fnv.New64a()
				var word [8]byte
				for _, v := range out.Values {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
				f := out.Faults
				got := pinnedCounts{
					Drops: f.Drops, Retries: f.Retries, Acks: f.Acks, Crashes: f.Crashes, Redispatches: f.Redispatches,
					Traffic: out.Traffic, LevelBytes: out.LevelBytes, Iterations: out.Iterations, ValuesHash: h.Sum64(),
				}
				// PageRank's Apply is a multiply-add, which some
				// architectures fuse: its value bits are pinned where
				// the constants were recorded.
				if kn == "pagerank" && runtime.GOARCH != "amd64" {
					got.ValuesHash = want[name].ValuesHash
				}
				if !reflect.DeepEqual(got, want[name]) {
					t.Errorf("%q: %#v,", name, got)
				}
			}
		}
	}
}
