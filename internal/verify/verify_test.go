package verify

import (
	"errors"
	"reflect"
	"strings"
	"testing"
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
