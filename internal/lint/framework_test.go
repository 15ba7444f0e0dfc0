package lint

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a throwaway module so the loader can be
// driven over real files without touching the repository's own fixtures.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadTempModule(t *testing.T, dir string) []*Package {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Fatalf("temp module type error: %v", e)
		}
	}
	return pkgs
}

// TestTypeErrorDiagnostics: a package that stops compiling becomes a
// "typecheck" finding instead of sliding through with analyzers
// silently degraded.
func TestTypeErrorDiagnostics(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"go.mod":     "module broken\n",
		"bad/bad.go": "package bad\n\nfunc f() int { return \"not an int\" }\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := TypeErrorDiagnostics(pkgs)
	if len(diags) == 0 {
		t.Fatal("broken package produced no typecheck findings")
	}
	for _, d := range diags {
		if d.Rule != "typecheck" {
			t.Errorf("rule = %q, want typecheck", d.Rule)
		}
		if !strings.HasSuffix(d.Position.Filename, "bad.go") || d.Position.Line == 0 {
			t.Errorf("finding lacks a real position: %v", d.Position)
		}
	}
}

// TestIgnoreDirectiveParsing is the table-driven contract for
// //lint:ignore: multi-rule lists, reasons being mandatory, and
// malformed pieces being findings themselves.
func TestIgnoreDirectiveParsing(t *testing.T) {
	cases := []struct {
		name      string
		comment   string
		rules     []string // recorded suppressions, nil if none
		malformed int      // "ignore" diagnostics produced
	}{
		{"single", "//lint:ignore errcheck deliberate best-effort write", []string{"errcheck"}, 0},
		{"multi", "//lint:ignore errcheck,maporder one line trips both", []string{"errcheck", "maporder"}, 0},
		// A space after the comma is NOT supported: the rule list is the
		// first whitespace-separated field. The trailing comma yields an
		// empty piece, which is reported rather than silently dropped.
		{"spaced_comma_rejected", "//lint:ignore errcheck, maporder spaces around the comma", []string{"errcheck"}, 1},
		{"wildcard", "//lint:ignore * fixture exercises every rule", []string{"*"}, 0},
		{"no_reason", "//lint:ignore errcheck", nil, 1},
		{"no_rule", "//lint:ignore", nil, 1},
		{"empty_piece", "//lint:ignore errcheck,,maporder double comma", []string{"errcheck", "maporder"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\nfunc f() {\n\t" + tc.comment + "\n\t_ = 0\n}\n"
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			into := make(map[string]map[int][]string)
			var diags []Diagnostic
			collectIgnores(fset, file, into, &diags)
			if len(diags) != tc.malformed {
				t.Fatalf("malformed count = %d, want %d (%v)", len(diags), tc.malformed, diags)
			}
			for _, d := range diags {
				if d.Rule != "ignore" {
					t.Errorf("malformed directive reported under rule %q, want ignore", d.Rule)
				}
			}
			var got []string
			for _, byLine := range into {
				for _, rules := range byLine {
					got = append(got, rules...)
				}
			}
			if len(got) != len(tc.rules) {
				t.Fatalf("recorded rules %v, want %v", got, tc.rules)
			}
			for i, r := range tc.rules {
				if got[i] != r {
					t.Errorf("rule[%d] = %q, want %q", i, got[i], r)
				}
			}
		})
	}
}

// TestMultiRuleIgnoreSuppresses drives a line that trips two rules at
// once and suppresses both with a single directive.
func TestMultiRuleIgnoreSuppresses(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"go.mod": "module multi\n",
		"p/p.go": `package p

import "os"

func dump(w *os.File, m map[string][]byte) {
	for _, v := range m {
		//lint:ignore errcheck,maporder demo output, order and errors acknowledged
		w.Write(v)
	}
	for _, v := range m {
		w.Write(v)
	}
}
`,
	})
	pkgs := loadTempModule(t, dir)
	diags := Run([]Analyzer{ErrCheck{}, MapOrder{}}, pkgs)
	rules := make(map[string]int)
	for _, d := range diags {
		rules[d.Rule]++
	}
	// Only the second, undirected loop may report — once per rule.
	if rules["errcheck"] != 1 || rules["maporder"] != 1 || len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want exactly one errcheck and one maporder from the unsuppressed loop", diags)
	}
}

// TestGoldenJSON pins the machine-readable output shape: field order
// and module-root-relative positions. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/lint -run TestGoldenJSON.
func TestGoldenJSON(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("internal", "lint", "testdata", "src", "errcheck"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]Analyzer{ErrCheck{}}, pkgs)
	if len(diags) == 0 {
		t.Fatal("errcheck fixture produced no findings to pin")
	}
	Relativize(diags, loader.ModuleRoot)
	for _, d := range diags {
		if filepath.IsAbs(d.Position.Filename) || strings.Contains(d.Position.Filename, "\\") {
			t.Errorf("position not module-root-relative: %q", d.Position.Filename)
		}
	}
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "golden", "errcheck.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(want) != string(data) {
		t.Errorf("JSON output drifted from golden file %s:\nwant:\n%s\ngot:\n%s", golden, want, data)
	}
}

// TestModuleCoverageIncludesCmd pins the loader's reach: the gate
// analyzes the binaries and bench/, not just internal/, and the whole
// module stays type-clean.
func TestModuleCoverageIncludesCmd(t *testing.T) {
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
	seen := make(map[string]bool, len(pkgs))
	var typeErrs int
	for _, pkg := range pkgs {
		seen[pkg.ImportPath] = true
		typeErrs += len(pkg.TypeErrors)
	}
	for _, want := range []string{"repro/cmd/ndplint", "repro/cmd/ndprun", "repro/bench"} {
		if !seen[want] {
			t.Errorf("loader did not cover %s", want)
		}
	}
	cmds := 0
	for p := range seen {
		if strings.HasPrefix(p, "repro/cmd/") {
			cmds++
		}
	}
	if cmds < 5 {
		t.Errorf("coverage looks truncated: %d cmd packages", cmds)
	}
	if typeErrs != 0 {
		t.Errorf("module has %d type errors; the typecheck rule would gate these", typeErrs)
	}
}

// TestLoaderRespectsBuildConstraints pins the loader's go-tool-equivalent
// file selection: per-platform variants of one function (same name, build
// tags partitioning the platforms) must type-check as the compiler sees
// them — one variant — not as a redeclaration. internal/store's mmap
// pair is the in-repo case this protects.
func TestLoaderRespectsBuildConstraints(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"go.mod": "module tmp\n\ngo 1.24\n",
		"p/a.go": "package p\n\nfunc impl() int { return 1 }\n",
		"p/b.go": "//go:build never_set_tag\n\npackage p\n\nfunc impl() int { return 2 }\n",
	})
	pkgs := loadTempModule(t, dir)
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d packages, want 1 with only the unconstrained file", len(pkgs))
	}
}
