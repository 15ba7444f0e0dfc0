// Command ndpbench regenerates the paper's tables and figures on the
// simulated disaggregated NDP system, as aligned text, CSV, or the
// markdown reproduction report.
//
// Usage:
//
//	ndpbench [flags] <artifact|all> [artifact...]
//
// Artifacts: table1, table2, fig4, fig5, fig6, fig7a, fig7b, fig7c, dyn, …
//
// Flags:
//
//	-scale float     dataset scale factor (default 0.5)
//	-seed uint       generation seed (default 42)
//	-priters int     PageRank iterations (default 10)
//	-format string   text | csv | markdown (default text)
//	-plot            render ASCII series plots for figures (text and csv;
//	                 refused with markdown)
//
// `ndpbench -format markdown all > REPORT.md` writes the reproduction
// report: configuration, one section per artifact, and the tally of
// paper-shape checks. A MISMATCH note in it exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliconf"
	"repro/internal/experiments"
	"repro/internal/gio"
	"repro/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the artifacts to stdout and
// returns the exit status — 2 for a usage error, 1 for a failure or a
// MISMATCH note in the report.
func run(args []string, stdout, stderr io.Writer) int {
	var ef cliconf.ExperimentFlags
	fs := flag.NewFlagSet("ndpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ef.Register(fs)
	format := fs.String("format", "text", "output: text (aligned tables), csv, or markdown (the reproduction report)")
	plot := fs.Bool("plot", false, "render ASCII series plots (text and csv)")
	outdir := fs.String("outdir", "", "also write each artifact as <outdir>/<id>.csv plus <id>.notes.txt")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ef.ApplyWorkers()

	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "text", "csv", "markdown":
	default:
		_, _ = fmt.Fprintf(stderr, "ndpbench: unknown -format %q (want text, csv, or markdown)\n", *format)
		return 2
	}
	if *plot && *format == "markdown" {
		_, _ = fmt.Fprintf(stderr, "ndpbench: -plot renders only with -format text or csv, not markdown\n")
		return 2
	}
	fail := func(err error) int {
		_, _ = fmt.Fprintf(stderr, "ndpbench: %v\n", err)
		return 1
	}
	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return fail(err)
		}
	}
	cfg := experiments.Config{Scale: ef.Scale, Seed: ef.Seed, PageRankIterations: ef.PRIters}
	w := &errWriter{w: stdout}
	if *format == "markdown" {
		w.printf("# Reproduction report — Disaggregated NDP Architectures for Large-scale Graph Analytics\n\n")
		w.printf("Configuration: scale=%g seed=%d pagerank-iterations=%d\n\n", cfg.Scale, cfg.Seed, cfg.PageRankIterations)
		w.printf("Regenerate any section with `go run ./cmd/ndpbench -scale %g -seed %d <id>`.\n\n", cfg.Scale, cfg.Seed)
	}
	okTotal, mismatchTotal := 0, 0
	for _, id := range ids {
		a, err := experiments.Run(id, cfg)
		if err != nil {
			return fail(err)
		}
		if *format == "markdown" {
			ok, mismatch := emitMarkdown(w, a)
			okTotal += ok
			mismatchTotal += mismatch
		} else {
			emit(w, a, *format == "csv", *plot)
		}
		if w.err != nil {
			return fail(w.err)
		}
		if *outdir != "" {
			if err := writeArtifact(*outdir, a); err != nil {
				return fail(err)
			}
		}
	}
	if *format == "markdown" {
		w.printf("---\n\n**Paper-shape checks: %d passed, %d failed.**\n", okTotal, mismatchTotal)
		if w.err != nil {
			return fail(w.err)
		}
		if mismatchTotal > 0 {
			return 1
		}
	}
	return 0
}

// errWriter keeps the first write failure, so the output can be printed
// unconditionally and fail once: a truncated report (full disk, broken
// pipe) must not exit 0.
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

// do runs one render step unless an earlier write failed.
func (e *errWriter) do(render func(io.Writer) error) {
	if e.err == nil {
		e.err = render(e.w)
	}
}

// emit prints an artifact as an aligned-text or CSV table, its series
// plot if asked for, and its notes.
func emit(w *errWriter, a *experiments.Artifact, csv, plot bool) {
	if csv {
		w.do(a.Table.RenderCSV)
	} else {
		w.do(a.Table.Render)
	}
	if plot && len(a.Series) > 0 {
		w.do(func(out io.Writer) error { return metrics.Plot(out, a.Title, a.XLabel, a.Series) })
	}
	for _, n := range a.Notes {
		w.printf("  * %s\n", n)
	}
	w.printf("\n")
}

// emitMarkdown prints an artifact as one section of the reproduction
// report and returns how many of its paper-shape checks passed and failed.
func emitMarkdown(w *errWriter, a *experiments.Artifact) (ok, mismatch int) {
	w.printf("## `%s` — %s\n\n", a.ID, a.Title)
	w.do(a.Table.RenderMarkdown)
	if len(a.Notes) > 0 {
		var notes string
		notes, ok, mismatch = renderNotes(a.Notes)
		w.printf("\n%s", notes)
	}
	w.printf("\n")
	return ok, mismatch
}

// writeArtifact saves the artifact's table as CSV and its title+notes as
// a sidecar text file.
func writeArtifact(dir string, a *experiments.Artifact) error {
	if err := gio.WriteFileAtomic(filepath.Join(dir, a.ID+".csv"), a.Table.RenderCSV); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString(a.Title + "\n")
	for _, n := range a.Notes {
		b.WriteString("* " + n + "\n")
	}
	return gio.WriteFileAtomic(filepath.Join(dir, a.ID+".notes.txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

func usage(fs *flag.FlagSet) {
	_, _ = fmt.Fprintf(fs.Output(), `ndpbench regenerates the paper's evaluation artifacts.

usage: ndpbench [flags] <artifact|all> [artifact...]

artifacts: %s

flags:
`, strings.Join(experiments.IDs(), ", "))
	fs.PrintDefaults()
}
