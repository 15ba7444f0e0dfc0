// Command ndplint runs the project's static-analysis suite: determinism
// and concurrency invariants the emulator's methodology depends on,
// enforced with stdlib go/ast + go/types only.
//
//	ndplint ./...                     # human output, exit 1 on findings
//	ndplint -json ./...               # machine-readable findings
//	ndplint -rules maporder,errcheck  # run a subset of the rules
//	ndplint -list                     # list rules and what they enforce
//	ndplint -fix ./...                # apply mechanical fixes in place
//	ndplint -fix -diff ./...          # preview those fixes as a unified diff
//
// Positions in JSON output are relative to the module root, so output
// is stable across checkouts. Type-check errors in any loaded package
// (cmd/... and bench included) are themselves findings, under the
// built-in "typecheck" rule.
//
// Any finding fails the run: fix it, or suppress that one site with a
// reasoned directive on (or above) the line:
//
//	//lint:ignore <rule> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	ruleFilter := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	listRules := flag.Bool("list", false, "list lint rules and exit")
	includeTests := flag.Bool("tests", false, "also lint _test.go files")
	fix := flag.Bool("fix", false, "apply mechanical fixes for fixable findings")
	diff := flag.Bool("diff", false, "with -fix: print unified diffs instead of rewriting files")
	flag.Parse()

	analyzers := lint.All()
	if *listRules {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}
	if *ruleFilter != "" {
		byName := make(map[string]lint.Analyzer, len(analyzers))
		var names []string
		for _, a := range analyzers {
			byName[a.Name()] = a
			names = append(names, a.Name())
		}
		analyzers = nil
		for _, name := range strings.Split(*ruleFilter, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fail(fmt.Errorf("unknown rule %q (valid: %s)", name, strings.Join(names, ", ")))
			}
			analyzers = append(analyzers, a)
		}
	}
	if *diff && !*fix {
		fail(fmt.Errorf("-diff only makes sense with -fix"))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fail(err)
	}
	loader.IncludeTests = *includeTests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fail(err)
	}
	diags := append(lint.TypeErrorDiagnostics(pkgs), lint.Run(analyzers, pkgs)...)
	lint.SortDiagnostics(diags)

	if *fix {
		files, applied, err := lint.ApplyFixes(loader.Fset(), diags)
		if err != nil {
			fail(err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if *diff {
				orig, err := os.ReadFile(name)
				if err != nil {
					fail(err)
				}
				fmt.Print(lint.UnifiedDiff(relPath(loader.ModuleRoot, name), orig, files[name]))
				continue
			}
			if err := os.WriteFile(name, files[name], 0o644); err != nil {
				fail(err)
			}
		}
		if !*diff {
			// Applied findings are resolved; report what remains.
			remaining := diags[:0]
			for i, d := range diags {
				if !applied[i] {
					remaining = append(remaining, d)
				}
			}
			diags = remaining
		}
	}

	lint.Relativize(diags, loader.ModuleRoot)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "ndplint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relPath makes name relative to root for display; falls back to the
// absolute name outside the module.
func relPath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ndplint: %v\n", err)
	os.Exit(2)
}
