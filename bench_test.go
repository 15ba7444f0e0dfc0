// Package repro's root benchmark suite regenerates every evaluation
// artifact of the paper under the Go benchmark harness — one benchmark per
// table and figure (see DESIGN.md's per-experiment index). Custom metrics
// attach the headline numbers (bytes moved, reduction ratios) to the
// benchmark output so `go test -bench=.` doubles as the reproduction
// report. Host-speed measurement — engines, kernels, the store, the
// service — is bench/ (`bash bench/run.sh`), not this file.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate the human-readable artifacts instead with:
//
//	go run ./cmd/ndpbench all
package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/partition"
)

// benchCfg keeps artifact benchmarks proportionate; raise Scale for
// larger runs.
var benchCfg = experiments.Config{Scale: 0.5, Seed: 42, PageRankIterations: 10}

// benchArtifact runs one artifact per iteration and fails the benchmark
// if the artifact can no longer be produced.
func benchArtifact(b *testing.B, id string) *experiments.Artifact {
	b.Helper()
	var a *experiments.Artifact
	var err error
	for i := 0; i < b.N; i++ {
		a, err = experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return a
}

// BenchmarkTable1DeviceCatalog regenerates Table I.
func BenchmarkTable1DeviceCatalog(b *testing.B) {
	a := benchArtifact(b, "table1")
	b.ReportMetric(float64(a.Table.NumRows()), "devices")
}

// BenchmarkTable2Architectures regenerates Table II: the four-architecture
// comparison on PageRank / com-LiveJournal stand-in.
func BenchmarkTable2Architectures(b *testing.B) {
	a := benchArtifact(b, "table2")
	b.ReportMetric(float64(a.Table.NumRows()), "architectures")
}

// BenchmarkFig4ResourceRequirements regenerates Figure 4: compute vs
// memory demand per kernel and graph.
func BenchmarkFig4ResourceRequirements(b *testing.B) {
	a := benchArtifact(b, "fig4")
	b.ReportMetric(float64(a.Table.NumRows()), "kernel-graph-pairs")
}

// BenchmarkFig5OffloadImpact regenerates Figure 5 and reports the offload
// movement ratio on the extreme datasets: twitter7 (should be < 1) and
// wiki-talk (should be > 1).
func BenchmarkFig5OffloadImpact(b *testing.B) {
	a := benchArtifact(b, "fig5")
	no, off := a.Series[0].Values, a.Series[1].Values
	b.ReportMetric(off[0]/no[0], "twitter7-ratio")
	b.ReportMetric(off[3]/no[3], "wikitalk-ratio")
}

// BenchmarkFig6PartitioningAggregation regenerates Figure 6 and reports
// the movement reduction the full NDP+min-cut+INC stack achieves at the
// largest partition count.
func BenchmarkFig6PartitioningAggregation(b *testing.B) {
	a := benchArtifact(b, "fig6")
	last := len(a.Series[0].Values) - 1
	noNDP := a.Series[0].Values[last]
	full := a.Series[3].Values[last]
	b.ReportMetric(full/noNDP, "fullstack-vs-nondp")
}

// BenchmarkFig7aPerIterationCC regenerates Figure 7a (CC on twitter7
// stand-in, 32 partitions).
func BenchmarkFig7aPerIterationCC(b *testing.B) {
	a := benchArtifact(b, "fig7a")
	b.ReportMetric(float64(len(a.Series[0].Values)), "iterations")
}

// BenchmarkFig7bPerIterationBFS regenerates Figure 7b (BFS on
// com-LiveJournal stand-in, 16 partitions).
func BenchmarkFig7bPerIterationBFS(b *testing.B) {
	a := benchArtifact(b, "fig7b")
	b.ReportMetric(float64(len(a.Series[0].Values)), "iterations")
}

// BenchmarkFig7cPerIterationPR regenerates Figure 7c (PageRank on uk-2005
// stand-in, 80 partitions).
func BenchmarkFig7cPerIterationPR(b *testing.B) {
	a := benchArtifact(b, "fig7c")
	b.ReportMetric(float64(len(a.Series[0].Values)), "iterations")
}

// BenchmarkDynamicPolicy regenerates the Section IV-D policy comparison.
func BenchmarkDynamicPolicy(b *testing.B) {
	a := benchArtifact(b, "dyn")
	b.ReportMetric(float64(a.Table.NumRows()), "workloads")
}

// BenchmarkMixedOffload regenerates the per-partition offload ablation
// (global vs per-memory-node decisions).
func BenchmarkMixedOffload(b *testing.B) {
	a := benchArtifact(b, "mixed")
	b.ReportMetric(float64(a.Table.NumRows()), "workloads")
}

// BenchmarkEnergyModel regenerates the per-architecture energy ablation.
func BenchmarkEnergyModel(b *testing.B) {
	a := benchArtifact(b, "energy")
	b.ReportMetric(float64(a.Table.NumRows()), "rows")
}

// BenchmarkCacheAblation regenerates the host-cache-vs-NDP sweep and
// reports how much movement the NDP stack saves over the uncached far
// memory baseline.
func BenchmarkCacheAblation(b *testing.B) {
	a := benchArtifact(b, "cache")
	base := a.Series[0].Values[0]
	ndp := a.Series[1].Values[0]
	b.ReportMetric(ndp/base, "ndp-vs-uncached")
}

// BenchmarkHeteroPool regenerates the device-heterogeneity ablation.
func BenchmarkHeteroPool(b *testing.B) {
	a := benchArtifact(b, "hetero")
	b.ReportMetric(float64(a.Table.NumRows()), "pool-kernel-pairs")
}

// BenchmarkStraggler regenerates the partition-balance/straggler ablation.
func BenchmarkStraggler(b *testing.B) {
	a := benchArtifact(b, "straggler")
	b.ReportMetric(float64(a.Table.NumRows()), "partitioners")
}

// BenchmarkTreeAggregation regenerates the hierarchical-aggregation
// ablation (measured from the concurrent actor cluster).
func BenchmarkTreeAggregation(b *testing.B) {
	a := benchArtifact(b, "tree")
	b.ReportMetric(float64(a.Table.NumRows()), "fan-ins")
}

// BenchmarkPartitionMultilevel measures the METIS-style partitioner on
// the com-LiveJournal stand-in at 32 parts.
func BenchmarkPartitionMultilevel(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (partition.Multilevel{Seed: 1}).Partition(g, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
}
