package experiments

import (
	"strings"
	"testing"
)

// testCfg keeps experiment tests fast while staying above the scale where
// the paper-shape effects manifest.
var testCfg = Config{Scale: 0.25, Seed: 42, PageRankIterations: 5}

func runArtifact(t *testing.T, id string) *Artifact {
	t.Helper()
	a, err := Run(id, testCfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if a.ID != id {
		t.Errorf("artifact id %q, want %q", a.ID, id)
	}
	if a.Table == nil || a.Table.NumRows() == 0 {
		t.Fatalf("%s: empty table", id)
	}
	return a
}

// assertNoMismatch fails if any paper-shape check was violated.
func assertNoMismatch(t *testing.T, a *Artifact) {
	t.Helper()
	for _, n := range a.Notes {
		if strings.HasPrefix(n, "MISMATCH") {
			t.Errorf("%s: %s", a.ID, n)
		}
	}
}

func TestIDsStable(t *testing.T) {
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig7c", "dyn", "mixed", "energy", "cache", "hetero", "straggler", "tree"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", testCfg); err == nil {
		t.Error("accepted unknown artifact id")
	}
}

func TestTable1(t *testing.T) {
	a := runArtifact(t, "table1")
	if a.Table.NumRows() != 5 {
		t.Errorf("Table I rows = %d, want 5 devices", a.Table.NumRows())
	}
	out := a.Table.String()
	for _, dev := range []string{"CXL-CMS", "CXL-PNM", "UPMEM", "SwitchML", "SHARP"} {
		if !strings.Contains(out, dev) {
			t.Errorf("Table I missing %s", dev)
		}
	}
	for _, cls := range []string{"PNM", "PIM", "INC"} {
		if !strings.Contains(out, cls) {
			t.Errorf("Table I missing class %s", cls)
		}
	}
}

func TestTable2ReproducesArchitectureComparison(t *testing.T) {
	a := runArtifact(t, "table2")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 4 {
		t.Errorf("Table II rows = %d, want 4 architectures", a.Table.NumRows())
	}
	out := a.Table.String()
	for _, arch := range []string{"distributed", "distributed-ndp", "disaggregated", "disaggregated-ndp+inc"} {
		if !strings.Contains(out, arch) {
			t.Errorf("Table II missing %s", arch)
		}
	}
	// The headline claim: disaggregated NDP is the only Low/Low/Balanced row.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "disaggregated-ndp+inc") {
			if !strings.Contains(line, "Low") || !strings.Contains(line, "Balanced") {
				t.Errorf("disaggregated NDP row not Low/Balanced: %q", line)
			}
		}
	}
}

func TestFig4ReproducesResourceDecoupling(t *testing.T) {
	a := runArtifact(t, "fig4")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 8 {
		t.Errorf("Fig 4 rows = %d, want 4 kernels x 2 graphs", a.Table.NumRows())
	}
}

func TestFig5ReproducesOffloadTradeoff(t *testing.T) {
	a := runArtifact(t, "fig5")
	assertNoMismatch(t, a)
	if len(a.Series) != 2 {
		t.Fatalf("Fig 5 series = %d, want 2", len(a.Series))
	}
	if len(a.Series[0].Values) != 4 {
		t.Errorf("Fig 5 datasets = %d, want 4", len(a.Series[0].Values))
	}
}

func TestFig6ReproducesPartitioningEffects(t *testing.T) {
	a := runArtifact(t, "fig6")
	assertNoMismatch(t, a)
	if len(a.Series) != 4 {
		t.Fatalf("Fig 6 series = %d, want 4", len(a.Series))
	}
	for _, s := range a.Series {
		if len(s.Values) != 6 {
			t.Errorf("Fig 6 %s sweep points = %d, want 6", s.Name, len(s.Values))
		}
	}
	// The no-NDP line is flat: edge-fetch volume is partition-independent.
	flat := a.Series[0].Values
	for i := 1; i < len(flat); i++ {
		if flat[i] != flat[0] {
			t.Errorf("no-NDP series not flat: %v", flat)
			break
		}
	}
}

func TestFig7PanelsProduceSeries(t *testing.T) {
	for _, id := range []string{"fig7a", "fig7b", "fig7c"} {
		a := runArtifact(t, id)
		if len(a.Series) != 2 {
			t.Errorf("%s: series = %d, want 2 (ndp, no-ndp)", id, len(a.Series))
			continue
		}
		if len(a.Series[0].Values) != len(a.Series[1].Values) {
			t.Errorf("%s: series lengths differ", id)
		}
		if len(a.Series[0].Values) < 2 {
			t.Errorf("%s: only %d iterations recorded", id, len(a.Series[0].Values))
		}
	}
}

func TestFig7cRequiresEnoughVertices(t *testing.T) {
	// 80 partitions cannot be carved out of a microscopic graph; the
	// harness must reject rather than mislead.
	if _, err := Run("fig7c", Config{Scale: 0.001, Seed: 1}); err == nil {
		// Scale floors at 16 vertices; 80 partitions must fail.
		t.Error("fig7c accepted graph smaller than its partition count")
	}
}

func TestDynamicPolicyComparison(t *testing.T) {
	a := runArtifact(t, "dyn")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 12 {
		t.Errorf("dyn rows = %d, want 3 graphs x 4 kernels", a.Table.NumRows())
	}
}

func TestMixedOffloadAblation(t *testing.T) {
	a := runArtifact(t, "mixed")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 6 {
		t.Errorf("mixed rows = %d, want 6 workloads", a.Table.NumRows())
	}
}

func TestEnergyAblation(t *testing.T) {
	a := runArtifact(t, "energy")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 8 {
		t.Errorf("energy rows = %d, want 2 graphs x 4 architectures", a.Table.NumRows())
	}
}

func TestCacheAblation(t *testing.T) {
	a := runArtifact(t, "cache")
	assertNoMismatch(t, a)
	// The cached-movement series must be non-increasing in cache budget.
	vals := a.Series[0].Values
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			t.Errorf("cache series not monotone at %d: %v", i, vals)
		}
	}
}

func TestHeteroAblation(t *testing.T) {
	a := runArtifact(t, "hetero")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 8 {
		t.Errorf("hetero rows = %d, want 4 pools x 2 kernels", a.Table.NumRows())
	}
}

func TestStragglerAblation(t *testing.T) {
	a := runArtifact(t, "straggler")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 3 {
		t.Errorf("straggler rows = %d, want 3 partitioners", a.Table.NumRows())
	}
}

func TestTreeAblation(t *testing.T) {
	a := runArtifact(t, "tree")
	assertNoMismatch(t, a)
	if a.Table.NumRows() != 3 {
		t.Errorf("tree rows = %d, want 3 fan-ins", a.Table.NumRows())
	}
	// Each series (one per fan-in) must be non-increasing across levels.
	for _, s := range a.Series {
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i] > s.Values[i-1] {
				t.Errorf("%s: level %d grew: %v", s.Name, i, s.Values)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale <= 0 || c.Seed == 0 || c.PageRankIterations <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Scale: 2, Seed: 7, PageRankIterations: 3}.withDefaults()
	if c2.Scale != 2 || c2.Seed != 7 || c2.PageRankIterations != 3 {
		t.Errorf("explicit config overwritten: %+v", c2)
	}
}

func TestArtifactsDeterministic(t *testing.T) {
	// Same config => identical tables, byte for byte (the reproduction
	// claim depends on it).
	for _, id := range []string{"fig5", "fig6", "dyn"} {
		a1, err := Run(id, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Run(id, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Table.String() != a2.Table.String() {
			t.Errorf("%s: tables differ across identical runs", id)
		}
	}
}

func TestScaleChangesDatasets(t *testing.T) {
	small, err := Run("fig5", Config{Scale: 0.125, Seed: 42, PageRankIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run("fig5", Config{Scale: 0.25, Seed: 42, PageRankIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Movement grows with dataset scale.
	if large.Series[0].Values[0] <= small.Series[0].Values[0] {
		t.Errorf("larger scale did not increase movement: %v vs %v",
			large.Series[0].Values[0], small.Series[0].Values[0])
	}
}
