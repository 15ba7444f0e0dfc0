// Command gpart partitions a graph file and reports the quality metrics
// that drive disaggregated NDP offload efficiency: edge cut, replication
// factor (mirror count), and balance.
//
// Usage:
//
//	gpart -in graph.gcsr -k 16 -method multilevel
//	gpart -in graph.gcsr2 -k 8 -method all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliconf"
	"repro/internal/metrics"
	"repro/internal/partition"
)

func main() {
	in := flag.String("in", "", "input graph (.gcsr2 container, .gcsr binary or edge-list text)")
	k := flag.Int("k", 8, "number of partitions")
	method := flag.String("method", "multilevel", strings.Join(append(partition.Names(), "all"), " | "))
	seed := flag.Uint64("seed", 1, "multilevel seed")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "gpart: missing -in")
		flag.Usage()
		os.Exit(2)
	}
	g, err := cliconf.LoadGraph("", *in, 0, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %v\n", g)

	methods := []string{*method}
	if *method == "all" {
		methods = partition.Names()
	}
	var ps []partition.Partitioner
	for _, m := range methods {
		p, err := partition.ByName(m, *seed)
		if err != nil {
			fatal(err)
		}
		ps = append(ps, p)
	}

	t := metrics.NewTable(fmt.Sprintf("partition quality, k=%d", *k),
		"Method", "Edge cut", "Cut %", "Replication", "Mirrors", "V imbalance", "E imbalance")
	for _, p := range ps {
		a, err := p.Partition(g, *k)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p.Name(), err))
		}
		q := partition.Evaluate(g, a)
		t.AddRow(p.Name(), q.EdgeCut, 100*q.CutFraction, q.ReplicationFactor, q.Mirrors, q.VertexImbalance, q.EdgeImbalance)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gpart: %v\n", err)
	os.Exit(1)
}
