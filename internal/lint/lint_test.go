package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches a fixture expectation comment. Anchored so prose that
// merely mentions the syntax does not register an expectation.
var wantRe = regexp.MustCompile(`^// want "([^"]*)"`)

type want struct {
	substr string
	hits   int
}

// loadFixture type-checks one testdata package. Fixtures must be fully
// type-clean: every analyzer leans on go/types, and a silent resolution
// failure would make a rule pass vacuously.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loader.Load(filepath.Join("internal", "lint", "testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(got), dir)
	}
	for _, e := range got[0].TypeErrors {
		t.Errorf("fixture type error: %v", e)
	}
	return got[0]
}

// collectWants maps "file:line" to the expectation attached to that line.
func collectWants(pkg *Package) map[string]*want {
	wants := make(map[string]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = &want{substr: m[1]}
			}
		}
	}
	return wants
}

// TestAnalyzersOnFixtures runs each analyzer alone against its fixture
// package and checks the findings line-for-line against // want comments:
// every want must fire, and nothing may fire without a want.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer Analyzer
		// importPath overrides the loader-derived path for the one
		// path-scoped rule whose scope the fixtures' natural path
		// (repro/internal/lint/testdata/src/...) does not fall in.
		importPath string
	}{
		// nodeterm covers every package under repro/internal/, which the
		// fixtures' natural paths already are (TestNoDetermScope pins
		// the boundary). clockutil is the helper package a four-package
		// nodeterm could not see into.
		{"nodeterm", NoDeterm{}, ""},
		{"timetaint/clockutil", NoDeterm{}, ""},
		{"maporder", MapOrder{}, ""},
		{"errcheck", ErrCheck{}, ""},
		{"floatacc", FloatAcc{}, ""},
		{"panicpath", PanicPath{}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir)
			if tc.importPath != "" {
				pkg.ImportPath = tc.importPath
			}
			diags := Run([]Analyzer{tc.analyzer}, []*Package{pkg})
			wants := collectWants(pkg)
			fired := 0
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Position.Filename), d.Position.Line)
				w := wants[key]
				if w == nil {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !strings.Contains(d.Message, w.substr) {
					t.Errorf("%s: message %q does not contain %q", key, d.Message, w.substr)
					continue
				}
				w.hits++
				fired++
			}
			for key, w := range wants {
				if w.hits == 0 {
					t.Errorf("%s: expected a %s diagnostic containing %q, got none",
						key, tc.analyzer.Name(), w.substr)
				}
			}
			if fired == 0 {
				t.Errorf("analyzer %s produced no findings on its fixture", tc.analyzer.Name())
			}
		})
	}
}

// TestNoDetermScope pins the one boundary the determinism ban has: every
// package under repro/internal/ is covered — so a clock read in a helper
// package is flagged at its source and cannot be laundered into a
// simulation path — and nothing outside it is (the commands and bench/
// time themselves on purpose). The input is the laundering fixture,
// loaded under each path in turn.
func TestNoDetermScope(t *testing.T) {
	cases := []struct {
		importPath string
		inScope    bool
	}{
		{"repro/internal/serve", true},
		{"repro/internal/clockutil", true},
		{"repro/internal/sim/x", true},
		// The fault layer is the highest-stakes case: drops, delays and
		// backoff must come from the seeded plan, never the wall clock
		// or ambient RNG.
		{"repro/internal/cluster/fault", true},
		{"repro/cmd/ndprun", false},
		{"repro/bench", false},
	}
	pkg := loadFixture(t, filepath.Join("timetaint", "clockutil"))
	for _, tc := range cases {
		pkg.ImportPath = tc.importPath
		diags := Run([]Analyzer{NoDeterm{}}, []*Package{pkg})
		if !tc.inScope {
			if len(diags) != 0 {
				t.Errorf("%s is outside nodeterm's scope but got %v", tc.importPath, diags)
			}
			continue
		}
		var got []string
		for _, d := range diags {
			got = append(got, d.Message)
		}
		if len(got) != 2 || !strings.Contains(got[0], "wall-clock time.Now") || !strings.Contains(got[1], "math/rand.Float64") {
			t.Errorf("%s: want the time.Now and rand.Float64 calls flagged, got %q", tc.importPath, got)
		}
	}
}

// ruleCatalog is the suite's membership and order, which is also the
// order of `ndplint -list`. TestRulesCatchSeededMutants demands a seeded
// mutant for every name here.
var ruleCatalog = []string{
	"nodeterm", "maporder", "errcheck", "floatacc", "panicpath",
}

// TestRuleCatalog pins All() to the catalog.
func TestRuleCatalog(t *testing.T) {
	var got []string
	for _, a := range All() {
		got = append(got, a.Name())
	}
	if strings.Join(got, " ") != strings.Join(ruleCatalog, " ") {
		t.Errorf("rule catalog = %v, want %v", got, ruleCatalog)
	}
}

// lineContaining returns the 1-based line of the first source line that
// contains substr, for hand-coded expectations where a trailing // want
// comment cannot be attached (e.g. on a //lint:ignore directive line).
func lineContaining(t *testing.T, path, substr string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			return i + 1
		}
	}
	t.Fatalf("%s: no line contains %q", path, substr)
	return 0
}

// TestIgnoreDirectives covers the //lint:ignore machinery: same-line and
// line-above suppression, wildcard suppression, wrong-rule directives
// having no effect, and malformed directives being reported themselves.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	// The fixture's import path already sits under /internal/, so the
	// panicpath scope check passes without an override.
	if !strings.Contains(pkg.ImportPath, "/internal/") {
		t.Fatalf("fixture import path %q is not under /internal/", pkg.ImportPath)
	}
	diags := Run([]Analyzer{PanicPath{}}, []*Package{pkg})

	src := filepath.Join(pkg.Dir, "ignore.go")
	malformedPanic := lineContaining(t, src, `panic("directive above has no reason`)
	type exp struct {
		rule string
		line int
	}
	expected := []exp{
		{"ignore", malformedPanic - 1},
		{"panicpath", lineContaining(t, src, `panic("zero")`)},
		{"panicpath", malformedPanic},
	}
	if len(diags) != len(expected) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(expected), diags)
	}
	got := make(map[exp]bool)
	for _, d := range diags {
		got[exp{d.Rule, d.Position.Line}] = true
	}
	for _, e := range expected {
		if !got[e] {
			t.Errorf("missing %s diagnostic at %s:%d; got %v", e.rule, src, e.line, diags)
		}
	}
	// The suppressed sites must be absent.
	for _, marker := range []string{`panic("negative")`, `panic("too large")`, `panic("wildcard suppressed")`} {
		line := lineContaining(t, src, marker)
		for _, d := range diags {
			if d.Position.Line == line {
				t.Errorf("suppressed site at line %d still reported: %s", line, d)
			}
		}
	}
}

// TestRunOrdersDiagnostics checks the output contract: findings arrive
// sorted by file, line, column, rule — so ndplint output diffs cleanly.
func TestRunOrdersDiagnostics(t *testing.T) {
	pkg := loadFixture(t, "panicpath")
	diags := Run(All(), []*Package{pkg})
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Position.Filename > b.Position.Filename ||
			(a.Position.Filename == b.Position.Filename && a.Position.Line > b.Position.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestSuiteCleanOnRepo is the self-test the check gate relies on: the
// analyzer suite must report nothing on the repository's own sources.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := Run(All(), pkgs)
	for _, d := range diags {
		t.Errorf("repository is not lint-clean: %s", d)
	}
}
