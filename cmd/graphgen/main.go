// Command graphgen generates synthetic graphs — either the named dataset
// stand-ins from the catalog or raw generator output — and writes them as
// an edge list, the binary CSR container, or the out-of-core gcsr2
// segment container.
//
// With -stream, the dataset's edge stream feeds an external-sort spill
// builder directly into a gcsr2 container: peak memory is bounded by the
// spill buffer, not the graph, so scale factors far beyond RAM are
// buildable. A streamed build is bit-identical to the in-memory build at
// the same (scale, seed).
//
// Usage:
//
//	graphgen -dataset twitter7 -scale 0.5 -out twitter7.gcsr
//	graphgen -dataset com-livejournal -scale 100 -stream -out lj100.gcsr2
//	graphgen -gen rmat -n 16 -e 16 -out g.txt -format edgelist
//	graphgen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/store"
)

func main() {
	dataset := flag.String("dataset", "", "named dataset stand-in (see -list)")
	generator := flag.String("gen", "", "raw generator: rmat | er | pa | ws | star | grid | community")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	n := flag.Int("n", 12, "rmat: scale (log2 vertices); others: vertex count")
	e := flag.Int("e", 16, "edge factor (rmat) or total edges / degree (others)")
	seed := flag.Uint64("seed", 42, "generation seed")
	weighted := flag.Bool("weighted", true, "attach edge weights")
	out := flag.String("out", "", "output file ('-' for stdout edge list)")
	format := flag.String("format", "binary", "output format: binary | edgelist | gcsr2 (out-of-core segment container)")
	stream := flag.Bool("stream", false, "stream the dataset through the external-sort spill builder into a gcsr2 container (bounded memory; -dataset only)")
	spillEdges := flag.Int("spill-edges", 0, "stream mode: in-memory edge buffer before a sorted run spills to disk (0 = default)")
	segBytes := flag.Int64("segment-bytes", 0, "gcsr2 segment payload target in bytes (0 = 1 MiB default)")
	list := flag.Bool("list", false, "list dataset stand-ins and exit")
	stats := flag.Bool("stats", false, "print graph statistics to stderr")
	flag.Parse()

	if *list {
		for _, d := range gen.Datasets() {
			fmt.Printf("%-16s %s\n  real: %d vertices, %d edges; base stand-in: %d vertices\n",
				d.Name, d.Description, d.RealVertices, d.RealEdges, d.BaseVertices)
		}
		return
	}

	if *stream {
		if err := streamDataset(*dataset, *scale, *seed, *weighted, *out, *spillEdges, *segBytes); err != nil {
			fatal(err)
		}
		return
	}

	g, err := build(*dataset, *generator, *scale, *n, *e, gen.Config{Seed: *seed, Weighted: *weighted, DropSelfLoops: true})
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, graph.ComputeStats(g))
	}
	if *out == "" {
		fatal(fmt.Errorf("missing -out (use '-' for stdout edge list)"))
	}
	if *out == "-" {
		if err := gio.WriteEdgeList(os.Stdout, g); err != nil {
			fatal(err)
		}
		return
	}
	switch *format {
	case "binary":
		err = gio.SaveBinaryFile(*out, g)
	case "edgelist":
		err = gio.WriteFileAtomic(*out, func(w io.Writer) error { return gio.WriteEdgeList(w, g) })
	case "gcsr2":
		err = store.SaveGraphFile(*out, g, *segBytes)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %v to %s\n", g, *out)
}

// streamDataset builds a gcsr2 container out-of-core: the dataset's edge
// stream (the identical RNG sequence its in-memory Generate draws) feeds
// the external-sort spill builder, so memory stays bounded by the spill
// buffer at any scale factor.
func streamDataset(dataset string, scale float64, seed uint64, weighted bool, out string, spillEdges int, segBytes int64) error {
	if dataset == "" {
		return fmt.Errorf("-stream needs -dataset (raw generators have no streaming variant)")
	}
	if out == "" || out == "-" {
		return fmt.Errorf("-stream needs -out FILE (the container is seekless but binary)")
	}
	d, err := gen.ByName(dataset)
	if err != nil {
		return err
	}
	sb := store.NewSpillBuilder(d.Vertices(scale), store.SpillOptions{
		Weighted:      weighted,
		DropSelfLoops: true,
		SpillEdges:    spillEdges,
		SegmentBytes:  segBytes,
	})
	defer sb.Cleanup()
	if err := d.Stream(scale, seed, sb); err != nil {
		return err
	}
	added, runs := sb.NumEdgesAdded(), sb.NumRuns()
	if err := sb.SaveContainer(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamed %s scale %g: %d raw edges via %d spilled runs into %s\n",
		dataset, scale, added, runs, out)
	return nil
}

func build(dataset, generator string, scale float64, n, e int, cfg gen.Config) (*graph.Graph, error) {
	switch {
	case dataset != "":
		d, err := gen.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return d.Generate(scale, cfg)
	case generator != "":
		switch generator {
		case "rmat":
			return gen.RMATGraph500(n, e, cfg)
		case "er":
			return gen.ErdosRenyi(n, e, cfg)
		case "pa":
			return gen.PreferentialAttachment(n, e, cfg)
		case "ws":
			return gen.WattsStrogatz(n, e, 0.1, cfg)
		case "star":
			return gen.SkewedStar(n, maxInt(1, n/512), n/24, e, cfg)
		case "grid":
			return gen.Grid(n, n, cfg)
		case "community":
			return gen.Community(n, maxInt(2, n/128), e, 0.9, cfg)
		default:
			return nil, fmt.Errorf("unknown generator %q", generator)
		}
	default:
		return nil, fmt.Errorf("one of -dataset or -gen is required")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(1)
}
