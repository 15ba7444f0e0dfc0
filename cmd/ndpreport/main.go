// Command ndpreport regenerates every evaluation artifact and renders a
// single self-contained markdown reproduction report: configuration, one
// section per table/figure with the measured numbers, and the
// paper-shape check results.
//
//	ndpreport -scale 0.5 > report.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// errWriter tracks the first write failure so the report generator can
// print unconditionally and fail once at the end — a truncated report
// (full disk, broken pipe) must not exit 0.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func main() {
	scale := flag.Float64("scale", 0.5, "dataset scale factor")
	seed := flag.Uint64("seed", 42, "dataset generation seed")
	priters := flag.Int("priters", 10, "PageRank iterations")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, PageRankIterations: *priters}
	w := &errWriter{w: os.Stdout}

	w.printf("# Reproduction report — Disaggregated NDP Architectures for Large-scale Graph Analytics\n\n")
	w.printf("Configuration: scale=%g seed=%d pagerank-iterations=%d\n\n", *scale, *seed, *priters)
	w.printf("Regenerate any section with `go run ./cmd/ndpbench -scale %g -seed %d <id>`.\n\n", *scale, *seed)

	okTotal, mismatchTotal := 0, 0
	for _, id := range experiments.IDs() {
		a, err := experiments.Run(id, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", id, err))
		}
		w.printf("## `%s` — %s\n\n", a.ID, a.Title)
		if w.err == nil {
			w.err = a.Table.RenderMarkdown(w.w)
		}
		if len(a.Notes) > 0 {
			notes, ok, mismatch := renderNotes(a.Notes)
			w.printf("\n%s", notes)
			okTotal += ok
			mismatchTotal += mismatch
		}
		w.printf("\n")
	}
	w.printf("---\n\n**Paper-shape checks: %d passed, %d failed.**\n", okTotal, mismatchTotal)
	if w.err != nil {
		fatal(w.err)
	}
	if mismatchTotal > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpreport: %v\n", err)
	os.Exit(1)
}
