package verify

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/sim"
)

func TestGenerateIsDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		a := Generate(5, i)
		b := Generate(5, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %d: two generations differ:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestGeneratedScenariosValidate(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for i := 0; i < 100; i++ {
			sc := Generate(seed, i)
			if err := sc.Validate(); err != nil {
				t.Fatalf("seed %d scenario %d invalid: %v\n%+v", seed, i, err, sc)
			}
		}
	}
}

func TestGenerateCoversTheScenarioSpace(t *testing.T) {
	kernels := map[string]bool{}
	partitioners := map[string]bool{}
	generators := map[string]bool{}
	var clustered, faulted, buffered, trees int
	const total = 400
	for i := 0; i < total; i++ {
		sc := Generate(1, i)
		kernels[sc.Kernel] = true
		partitioners[sc.Partitioner] = true
		generators[sc.Generator] = true
		if sc.Cluster {
			clustered++
		}
		if !sc.Fault.Empty() {
			faulted++
		}
		if sc.SwitchBufferEntries > 0 {
			buffered++
		}
		if sc.TreeFanIn > 0 {
			trees++
		}
	}
	if len(kernels) < 8 {
		t.Errorf("only %d kernels drawn in %d scenarios: %v", len(kernels), total, kernels)
	}
	if len(partitioners) < 5 {
		t.Errorf("only %d partitioners drawn: %v", len(partitioners), partitioners)
	}
	if len(generators) < 7 {
		t.Errorf("only %d generators drawn: %v", len(generators), generators)
	}
	for what, n := range map[string]int{"cluster": clustered, "fault": faulted, "buffer": buffered, "tree": trees} {
		if n == 0 {
			t.Errorf("no scenario exercised %s in %d draws", what, total)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for i := 0; i < 32; i++ {
		sc := Generate(3, i)
		js, err := sc.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(js)
		if err != nil {
			t.Fatalf("scenario %d: %v\n%s", i, err, js)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("scenario %d: round trip changed it:\n%+v\n%+v", i, sc, back)
		}
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	const valid = `{"generator":"er","vertices":64,"edgeFactor":2,"kernel":"bfs",
		"partitioner":"hash","partitions":2,"computeNodes":1,"workers":1`
	if _, err := ParseScenario([]byte(valid + "}\n \t")); err != nil {
		t.Fatalf("well-formed reproducer refused: %v", err)
	}
	for name, js := range map[string]string{
		"an unknown field":         valid + `,"typo_field":true}`,
		"trailing junk":            valid + `} trailing`,
		"a trailing brace":         valid + `}}`,
		"a second scenario behind": valid + `}` + valid + `}`,
	} {
		if _, err := ParseScenario([]byte(js)); err == nil {
			t.Errorf("reproducer with %s parsed without error", name)
		}
	}
}

func TestParseScenarioRejectsInvalid(t *testing.T) {
	js := []byte(`{"generator":"er","vertices":64,"edgeFactor":2,"kernel":"no-such-kernel",
		"partitioner":"hash","partitions":2,"computeNodes":1,"workers":1}`)
	if _, err := ParseScenario(js); err == nil {
		t.Fatal("reproducer with an unknown kernel parsed without error")
	}
}

// TestScenarioSpecCarriesEveryAxis holds the scenario's one description
// of its machine to the scenario: the System sc.spec() builds has the
// scenario's topology, partitioner and seed, and cluster configuration
// with its fault plan, and the spec its kernel and worker pool, which the
// System does not expose. No oracle would notice a dropped channel depth
// or worker count: neither moves a result.
func TestScenarioSpecCarriesEveryAxis(t *testing.T) {
	for _, seed := range []uint64{1, 2024} {
		for i := 0; i < 200; i++ {
			sc := Generate(seed, i)
			spec := sc.spec()
			sys, err := spec.System()
			if err != nil {
				t.Fatalf("seed %d scenario %d: %v", seed, i, err)
			}
			topo := sim.DefaultTopology(sc.ComputeNodes, sc.Partitions)
			topo.SwitchBufferEntries = sc.SwitchBufferEntries
			if got := sys.Topology(); !reflect.DeepEqual(got, topo) {
				t.Errorf("seed %d scenario %d: topology %+v, want %+v", seed, i, got, topo)
			}
			if p, err := partition.ByName(sc.Partitioner, sc.Seed); err != nil || sys.Partitioner() != p {
				t.Errorf("seed %d scenario %d: partitioner %#v, want %s at seed %d (%v)", seed, i, sys.Partitioner(), sc.Partitioner, sc.Seed, err)
			}
			links := cluster.LinkFaults{Drop: sc.Fault.Drop, Duplicate: sc.Fault.Duplicate, Delay: sc.Fault.Delay}
			cfg := cluster.Config{ComputeNodes: sc.ComputeNodes, Aggregate: sc.Aggregation, TreeFanIn: sc.TreeFanIn,
				ChannelDepth: sc.ChannelDepth, Fault: cluster.FaultPlan{Seed: sc.Fault.Seed, Update: links, Writeback: links}}
			for _, ev := range sc.Fault.Crashes {
				if cfg.Fault.Crash == nil {
					cfg.Fault.Crash = map[int]int{}
				}
				cfg.Fault.Crash[ev.Node] = ev.Iteration
			}
			if got := sys.ClusterConfig(); !reflect.DeepEqual(got, cfg) {
				t.Errorf("seed %d scenario %d: cluster config %+v, want %+v", seed, i, got, cfg)
			}
			if spec.Kernel != sc.Kernel || spec.Workers != sc.Workers {
				t.Errorf("seed %d scenario %d: spec runs %s on %d workers, scenario %s on %d",
					seed, i, spec.Kernel, spec.Workers, sc.Kernel, sc.Workers)
			}
		}
	}
}

// TestRefusedReplayFilesStayRefused holds Validate to every replay file
// it has refused, now that the scenario's System refuses most of them,
// and to a tree fan-in of 1, which no topology has.
func TestRefusedReplayFilesStayRefused(t *testing.T) {
	base := Scenario{Seed: 1, Generator: "er", Vertices: 64, EdgeFactor: 2, Kernel: "bfs", Partitioner: "hash",
		Partitions: 4, ComputeNodes: 1, Workers: 1, Cluster: true}
	if err := base.Validate(); err != nil {
		t.Fatalf("the base scenario is refused: %v", err)
	}
	for name, edit := range map[string]func(*Scenario){
		"an unknown generator":             func(sc *Scenario) { sc.Generator = "no-such-generator" },
		"an unknown kernel":                func(sc *Scenario) { sc.Kernel = "no-such-kernel" },
		"an unknown partitioner":           func(sc *Scenario) { sc.Partitioner = "no-such-partitioner" },
		"zero partitions":                  func(sc *Scenario) { sc.Partitions = 0 },
		"more partitions than nodes":       func(sc *Scenario) { sc.Partitions = 65 },
		"zero compute nodes":               func(sc *Scenario) { sc.ComputeNodes = 0 },
		"zero workers":                     func(sc *Scenario) { sc.Workers = 0 },
		"a negative switch buffer":         func(sc *Scenario) { sc.SwitchBufferEntries = -1 },
		"a negative tree fan-in":           func(sc *Scenario) { sc.TreeFanIn = -2 },
		"a tree fan-in of 1":               func(sc *Scenario) { sc.TreeFanIn = 1 },
		"a negative channel depth":         func(sc *Scenario) { sc.ChannelDepth = -4 },
		"a stateful kernel on the cluster": func(sc *Scenario) { sc.Kernel = "pagerank-delta" },
		"a probability above 1":            func(sc *Scenario) { sc.Fault.Duplicate = 1.5 },
		"a negative probability":           func(sc *Scenario) { sc.Fault.Delay = -0.1 },
		"a crash past the pool":            func(sc *Scenario) { sc.Fault.Crashes = []CrashEvent{{Node: 4, Iteration: 1}} },
		"a negative crash node":            func(sc *Scenario) { sc.Fault.Crashes = []CrashEvent{{Node: -1, Iteration: 1}} },
		"a crash at a negative iteration":  func(sc *Scenario) { sc.Fault.Crashes = []CrashEvent{{Node: 1, Iteration: -1}} },
		"a node crashed twice":             func(sc *Scenario) { sc.Fault.Crashes = []CrashEvent{{Node: 1, Iteration: 0}, {Node: 1, Iteration: 2}} },
		"every node crashed": func(sc *Scenario) {
			sc.Fault.Crashes = []CrashEvent{{Node: 0, Iteration: 1}, {Node: 1, Iteration: 1}, {Node: 2, Iteration: 1}, {Node: 3, Iteration: 2}}
		},
	} {
		sc := base
		edit(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("a scenario with %s validates", name)
		}
		js, err := sc.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseScenario(js); err == nil {
			t.Errorf("a replay file with %s parses", name)
		}
	}
}

// TestCheckGeneratedScenarios is the harness's own smoke: the first
// batch of seed-1 scenarios (the same ones scripts/check.sh replays
// through cmd/ndpverify) must hold every oracle.
func TestCheckGeneratedScenarios(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		sc := Generate(1, i)
		if err := Check(sc); err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.String(), err)
		}
	}
}

func TestShrinkMinimizesAgainstSyntheticFailure(t *testing.T) {
	sc := Generate(1, 1) // has Cluster, buffer, a fault plan
	sc.Vertices = 512
	sc.Workers = 4
	failsWhenBig := func(s Scenario) error {
		if s.Vertices >= 64 {
			return errors.New("synthetic failure")
		}
		return nil
	}
	min, failure := Shrink(sc, failsWhenBig, 0)
	if failure == nil {
		t.Fatal("Shrink lost the failure")
	}
	if min.Vertices != 64 {
		t.Errorf("vertices shrunk to %d, want the minimal failing 64", min.Vertices)
	}
	// Every dimension the failure does not depend on collapses to its
	// simplest setting.
	if min.Cluster || !min.Fault.Empty() || min.Workers != 1 || min.ComputeNodes != 1 ||
		min.Aggregation || min.SwitchBufferEntries != 0 || min.TreeFanIn != 0 ||
		min.ChannelDepth != 0 || min.Partitioner != "hash" || min.Partitions != 1 {
		t.Errorf("irrelevant dimensions not minimized: %+v", min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("shrunk scenario invalid: %v", err)
	}
}

func TestShrinkOnPassingScenarioIsIdentity(t *testing.T) {
	sc := Generate(1, 0)
	min, failure := Shrink(sc, func(Scenario) error { return nil }, 0)
	if failure != nil {
		t.Fatalf("shrinking a passing scenario produced a failure: %v", failure)
	}
	if !reflect.DeepEqual(min, sc) {
		t.Fatalf("shrinking a passing scenario changed it: %+v", min)
	}
}

func TestScenarioStringMentionsTheDrawnPieces(t *testing.T) {
	sc := Generate(1, 1)
	s := sc.String()
	for _, want := range []string{sc.Generator, sc.Kernel, sc.Partitioner} {
		if !strings.Contains(s, want) {
			t.Errorf("String() %q does not mention %q", s, want)
		}
	}
}

// TestValuesBitEqualComparesBits holds the bit-identity oracles, and
// ndprun -store-verify, to their claim: signed zeros and NaN payloads
// count, and so does a length mismatch.
func TestValuesBitEqualComparesBits(t *testing.T) {
	nan, other := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, tc := range []struct {
		name      string
		got, want []float64
		ok        bool
	}{
		{"equal", []float64{1, 2.5, math.Inf(1)}, []float64{1, 2.5, math.Inf(1)}, true},
		{"signed zeros", []float64{0}, []float64{math.Copysign(0, -1)}, false},
		{"same NaN bits", []float64{nan}, []float64{nan}, true},
		{"different NaN payloads", []float64{nan}, []float64{other}, false},
		{"length mismatch", []float64{1, 2}, []float64{1}, false},
		{"empty", nil, []float64{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValuesBitEqual(tc.got, tc.want); (err == nil) != tc.ok {
				t.Fatalf("ValuesBitEqual(%v, %v) = %v, want ok = %v", tc.got, tc.want, err, tc.ok)
			}
		})
	}
}
