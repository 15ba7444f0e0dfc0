// Command ndplint runs the project's static-analysis suite: determinism
// and concurrency invariants the emulator's methodology depends on,
// enforced with stdlib go/ast + go/types only. It loads the module's
// non-test packages, runs all 5 rules and reports what they find; it
// never rewrites a file.
//
//	ndplint ./...        # human output, exit 1 on findings
//	ndplint -json ./...  # machine-readable findings
//	ndplint -list        # list rules and what they enforce
//
// Package patterns resolve against the module root. Positions in the
// output are relative to it, so output is stable across checkouts.
// Type-check errors in any loaded package (cmd/... and bench included)
// are themselves findings, under the built-in "typecheck" rule.
//
// Any finding fails the run: fix it, or suppress that one site with a
// reasoned directive on (or above) the line:
//
//	//lint:ignore <rule> <reason>
//
// Exit status: 0 when clean, 1 on findings, 2 on a usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	listRules := fs.Bool("list", false, "list lint rules and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		_, _ = fmt.Fprintf(stderr, "ndplint: %v\n", err)
		return 2
	}

	analyzers := lint.All()
	if *listRules {
		for _, a := range analyzers {
			if _, err := fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc()); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return fail(err)
	}
	diags := append(lint.TypeErrorDiagnostics(pkgs), lint.Run(analyzers, pkgs)...)
	lint.SortDiagnostics(diags)
	lint.Relativize(diags, loader.ModuleRoot)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			if _, err := fmt.Fprintln(stdout, d); err != nil {
				return fail(err)
			}
		}
		if len(diags) > 0 {
			_, _ = fmt.Fprintf(stderr, "ndplint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
