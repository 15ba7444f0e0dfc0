package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// edit is one exact-string replacement in a mutant's file.
type edit struct{ old, new string }

// mutant is one seeded bug in the real sources: the edits are applied to
// file (slash-separated, from the module root) and rule — that rule and
// no other — must report on the package. Most mutants are one edit; the
// others follow it only where the bug needs a declaration to land in (a
// struct field, an import).
type mutant struct {
	rule  string
	file  string
	edits []edit
}

// seededMutants is the evidence each rule stays on: a bug re-introduced
// into product code that the rule is the one to report. DESIGN.md's rule
// table names, per row, the cheaper gate that also catches it (or none).
var seededMutants = []mutant{
	// The classic: an unset seed quietly becomes the clock.
	{"nodeterm", "internal/gen/rng.go", []edit{{
		"\treturn &rng{state: seed}\n",
		"\tif seed == 0 {\n\t\tseed = uint64(time.Now().UnixNano())\n\t}\n\treturn &rng{state: seed}\n",
	}, {
		"package gen\n", "package gen\n\nimport \"time\"\n",
	}}},
	{"maporder", "internal/metrics/counters.go", []edit{{
		"\tsort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })\n\treturn out\n",
		"\treturn out\n",
	}, {
		"\t\"sort\"\n", "",
	}}},
	{"errcheck", "internal/gio/gio.go", []edit{{
		"\tif err := bw.Flush(); err != nil {\n\t\treturn err\n\t}\n\t// Checksum straight",
		"\tbw.Flush()\n\t// Checksum straight",
	}}},
	// A float the pool's workers all add to. The mutex keeps the race
	// detector quiet; the order of the additions is still the scheduler's.
	{"floatacc", "internal/kernels/engine.go", []edit{{
		"\t\t\t\t\tp.task(w, i)\n",
		"\t\t\t\t\tp.task(w, i)\n\t\t\t\t\tp.mu.Lock()\n\t\t\t\t\tp.load += float64(i)\n\t\t\t\t\tp.mu.Unlock()\n",
	}, {
		"\tdone    chan struct{}\n}\n",
		"\tdone    chan struct{}\n\tmu      sync.Mutex\n\tload    float64\n}\n",
	}, {
		"\t\"sync/atomic\"\n", "\t\"sync\"\n\t\"sync/atomic\"\n",
	}}},
	{"panicpath", "internal/partition/partition.go", []edit{{
		"\t\treturn fmt.Errorf(\"partition: k = %d, want > 0\", k)\n",
		"\t\tpanic(fmt.Sprintf(\"partition: k = %d, want > 0\", k))\n",
	}}},
}

// TestRulesCatchSeededMutants is what keeps a rule in the suite: each
// catalog name needs a mutant of the real sources that it, and only it,
// reports. The module's non-test sources are copied once; each mutant is
// applied to the copy, its package loaded and the whole suite run on it.
func TestRulesCatchSeededMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a package per mutant; skipped in -short")
	}
	src, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copySources(t, src, root)
	// The stdlib is type-checked from source, the slow part of a load:
	// every mutant's loader shares the first one's.
	base, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}

	covered := make(map[string]bool)
	for _, m := range seededMutants {
		covered[m.rule] = true
		t.Run(m.rule, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated := string(orig)
			for _, e := range m.edits {
				if n := strings.Count(mutated, e.old); n != 1 {
					t.Fatalf("%s: mutant drifted: %q occurs %d times, want exactly once", m.file, e.old, n)
				}
				mutated = strings.Replace(mutated, e.old, e.new, 1)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			loader.fset, loader.std = base.fset, base.std
			pkgs, err := loader.Load(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range TypeErrorDiagnostics(pkgs) {
				t.Fatalf("mutant does not compile: %s", d)
			}
			hits := 0
			for _, d := range Run(All(), pkgs) {
				if d.Rule != m.rule {
					t.Errorf("mutant seeded for %s also reported by another rule: %s", m.rule, d)
					continue
				}
				hits++
			}
			if hits == 0 {
				t.Errorf("%s does not report its seeded mutant in %s", m.rule, m.file)
			}
		})
	}
	for _, name := range ruleCatalog {
		if !covered[name] {
			t.Errorf("rule %s has no seeded mutant: a rule stays only on a bug in the real sources that it catches", name)
		}
	}
}

// copySources mirrors under dst the go.mod and non-test Go files of every
// package directory the loader's "./..." walk visits.
func copySources(t *testing.T, src *Loader, dst string) {
	t.Helper()
	dirs, err := src.walk(src.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	copyFile := func(path string) {
		rel, err := filepath.Rel(src.ModuleRoot, path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join(src.ModuleRoot, "go.mod"))
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				copyFile(filepath.Join(dir, name))
			}
		}
	}
}
