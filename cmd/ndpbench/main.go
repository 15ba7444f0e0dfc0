// Command ndpbench regenerates the paper's tables and figures on the
// simulated disaggregated NDP system.
//
// Usage:
//
//	ndpbench [flags] <artifact|all> [artifact...]
//
// Artifacts: table1, table2, fig4, fig5, fig6, fig7a, fig7b, fig7c, dyn.
//
// Flags:
//
//	-scale float   dataset scale factor (default 0.5)
//	-seed uint     generation seed (default 42)
//	-priters int   PageRank iterations (default 10)
//	-csv           emit tables as CSV instead of aligned text
//	-plot          render ASCII series plots for figures
package main

import (
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
	var ef cliconf.ExperimentFlags
	ef.Register(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit CSV tables")
	plot := flag.Bool("plot", false, "render ASCII series plots")
	outdir := flag.String("outdir", "", "also write each artifact as <outdir>/<id>.csv plus <id>.notes.txt")
	flag.Usage = usage
	flag.Parse()
	ef.ApplyWorkers()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = experiments.IDs()
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := experiments.Config{Scale: ef.Scale, Seed: ef.Seed, PageRankIterations: ef.PRIters}
	for _, id := range ids {
		if err := emit(id, cfg, *csv, *plot, *outdir); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: %v\n", err)
			os.Exit(1)
		}
	}
}

func emit(id string, cfg experiments.Config, csv, plot bool, outdir string) error {
	a, err := experiments.Run(id, cfg)
	if err != nil {
		return err
	}
	if csv {
		if err := a.Table.RenderCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := a.Table.Render(os.Stdout); err != nil {
			return err
		}
	}
	if plot && len(a.Series) > 0 {
		if err := metrics.Plot(os.Stdout, a.Title, a.XLabel, a.Series); err != nil {
			return err
		}
	}
	for _, n := range a.Notes {
		fmt.Printf("  * %s\n", n)
	}
	fmt.Println()
	if outdir != "" {
		if err := writeArtifact(outdir, a); err != nil {
			return err
		}
	}
	return nil
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

func usage() {
	fmt.Fprintf(os.Stderr, `ndpbench regenerates the paper's evaluation artifacts.

usage: ndpbench [flags] <artifact|all> [artifact...]

artifacts: %s

flags:
`, strings.Join(experiments.IDs(), ", "))
	flag.PrintDefaults()
}
