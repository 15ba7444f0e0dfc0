// Package repro's root benchmark suite regenerates every evaluation
// artifact of the paper under the Go benchmark harness — one benchmark per
// table and figure (see DESIGN.md's per-experiment index), plus
// engine-level microbenchmarks. Custom metrics attach the headline numbers
// (bytes moved, reduction ratios) to the benchmark output so `go test
// -bench=.` doubles as the reproduction report.
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
	"context"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
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

// --- engine microbenchmarks ----------------------------------------------

// benchEngineSetup builds a twitter7-stand-in workload shared by the
// engine microbenchmarks.
func benchEngineSetup(b *testing.B, parts int) (*graph.Graph, sim.Topology, *partition.Assignment, kernels.Kernel) {
	b.Helper()
	g, err := gen.Twitter7.Generate(0.5, gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	assign, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		b.Fatal(err)
	}
	return g, sim.DefaultTopology(2, parts), assign, kernels.NewPageRank(10, 0.85)
}

// benchEngine measures one engine's simulation throughput in traversed
// edges per second.
func benchEngine(b *testing.B, mk func(topo sim.Topology, a *partition.Assignment) sim.Engine) {
	g, topo, assign, k := benchEngineSetup(b, 16)
	e := mk(topo, assign)
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		run, err := e.Run(g, k)
		if err != nil {
			b.Fatal(err)
		}
		edges = 0
		for _, rec := range run.Records {
			edges += rec.ActiveEdges
		}
	}
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkEngineDistributed measures the Gluon-style engine.
func BenchmarkEngineDistributed(b *testing.B) {
	benchEngine(b, func(t sim.Topology, a *partition.Assignment) sim.Engine {
		return &sim.Distributed{Topo: t, Assign: a}
	})
}

// BenchmarkEngineDistributedNDP measures the GraphQ-style engine.
func BenchmarkEngineDistributedNDP(b *testing.B) {
	benchEngine(b, func(t sim.Topology, a *partition.Assignment) sim.Engine {
		return &sim.DistributedNDP{Topo: t, Assign: a}
	})
}

// BenchmarkEngineDisaggregated measures the passive far-memory engine.
func BenchmarkEngineDisaggregated(b *testing.B) {
	benchEngine(b, func(t sim.Topology, a *partition.Assignment) sim.Engine {
		return &sim.Disaggregated{Topo: t, Assign: a}
	})
}

// BenchmarkEngineDisaggregatedNDP measures this paper's engine with
// in-network aggregation enabled.
func BenchmarkEngineDisaggregatedNDP(b *testing.B) {
	benchEngine(b, func(t sim.Topology, a *partition.Assignment) sim.Engine {
		return &sim.DisaggregatedNDP{Topo: t, Assign: a, InNetworkAggregation: true}
	})
}

// benchKernelEngine measures the in-process kernel engine on the
// hub-heavy com-LiveJournal stand-in: throughput is the nominal frontier
// edge volume per second (work accomplished per wall-clock), so the
// push-only and direction-optimized runs are directly comparable — the
// hybrid accomplishes the same traversal while probing far fewer edges.
func benchKernelEngine(b *testing.B, mk func() kernels.Kernel, dir kernels.Direction) {
	g, err := gen.ComLiveJournal.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	g.Transpose() // build the cached transpose outside the timer, like any warm service
	b.ResetTimer()
	var nominal, inspected int64
	for i := 0; i < b.N; i++ {
		res, err := kernels.RunSerialWith(g, mk(), kernels.Options{Direction: dir})
		if err != nil {
			b.Fatal(err)
		}
		nominal = 0
		for _, e := range res.ActiveEdges {
			nominal += e
		}
		inspected = res.EdgesInspected
	}
	b.ReportMetric(float64(nominal)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	b.ReportMetric(float64(inspected), "inspected")
}

// BenchmarkEngineKernelBFSPush is the push-only BFS baseline.
func BenchmarkEngineKernelBFSPush(b *testing.B) {
	benchKernelEngine(b, func() kernels.Kernel { return kernels.NewBFS(0) }, kernels.DirectionPush)
}

// BenchmarkEngineKernelBFSDirOpt is direction-optimized BFS; the edges/s
// gain over BenchmarkEngineKernelBFSPush is the PR's headline number.
func BenchmarkEngineKernelBFSDirOpt(b *testing.B) {
	benchKernelEngine(b, func() kernels.Kernel { return kernels.NewBFS(0) }, kernels.DirectionAuto)
}

// BenchmarkEngineKernelReachPush and BenchmarkEngineKernelReachDirOpt
// extend the comparison to the second BFS-class kernel.
func BenchmarkEngineKernelReachPush(b *testing.B) {
	benchKernelEngine(b, func() kernels.Kernel { return kernels.NewReachability(0) }, kernels.DirectionPush)
}

func BenchmarkEngineKernelReachDirOpt(b *testing.B) {
	benchKernelEngine(b, func() kernels.Kernel { return kernels.NewReachability(0) }, kernels.DirectionAuto)
}

// BenchmarkEngineKernelPageRankStaged tracks the staged parallel
// machine on the float-sum kernel (bit-identical at every worker count).
func BenchmarkEngineKernelPageRankStaged(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var nominal int64
	for i := 0; i < b.N; i++ {
		res, err := kernels.Run(g, kernels.NewPageRank(10, 0.85), kernels.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nominal = 0
		for _, e := range res.ActiveEdges {
			nominal += e
		}
	}
	b.ReportMetric(float64(nominal)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
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

// BenchmarkParallelSpeedup measures the deterministic parallel engine
// against its own serial (Workers=1) path on the default 4-architecture
// sweep shape — PageRank on the twitter7 stand-in, 16 partitions — and
// reports the wall-clock speedup plus both runtimes. The two paths are
// bit-identical (TestParallelMatchesSerial); this benchmark tracks how
// much time the staged-reduction parallelism buys.
func BenchmarkParallelSpeedup(b *testing.B) {
	g, topo, assign, k := benchEngineSetup(b, 16)
	run := func(workers int) float64 {
		start := time.Now()
		e := &sim.DisaggregatedNDP{Topo: topo, Assign: assign, InNetworkAggregation: true, Workers: workers}
		if _, err := e.Run(g, k); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	// Warm up shared structures (graph pages, assignment) once.
	run(1)
	b.ResetTimer()
	var serial, parallel float64
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(0)
	}
	b.ReportMetric(serial/float64(b.N)*1e3, "serial-ms")
	b.ReportMetric(parallel/float64(b.N)*1e3, "parallel-ms")
	b.ReportMetric(serial/parallel, "speedup")
}

// benchStoreSetup encodes the com-LiveJournal stand-in into a gcsr2
// container once and measures the kernel's full-residency working set
// (peak decompressed segment bytes over an unconstrained run), so the
// cache-ratio benchmarks can size their budgets as fractions of it.
func benchStoreSetup(b *testing.B) (data []byte, workingSet int64) {
	b.Helper()
	g, err := gen.ComLiveJournal.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	// 64 KiB segments: enough segments (~10) that fractional budgets
	// actually evict — at the default 1 MiB the whole stand-in is one
	// segment and every ratio degenerates to all-or-nothing.
	data, err = store.EncodeGraph(g, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.OpenBytes(data, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := kernels.RunOn(context.Background(), st, kernels.NewBFS(0), kernels.Serial, kernels.Options{}); err != nil {
		b.Fatal(err)
	}
	return data, st.Stats().PeakResidentBytes
}

// benchStoreBFS runs out-of-core BFS with the local tier capped at the
// given fraction of the full working set. edges/s is the same nominal
// frontier-edge throughput the in-memory engine benchmarks report, so
// the 100%/50%/10% rows read directly as the price of memory pressure;
// far-B/iter is the far-memory fetch volume that price buys.
func benchStoreBFS(b *testing.B, ratio float64) {
	data, workingSet := benchStoreSetup(b)
	budget := int64(float64(workingSet) * ratio)
	if ratio >= 1 {
		budget = 0 // unlimited: everything stays local after first touch
	}
	st, err := store.OpenBytes(data, store.Options{LocalBytes: budget})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	var nominal int64
	for i := 0; i < b.N; i++ {
		res, err := kernels.RunOn(context.Background(), st, kernels.NewBFS(0), kernels.Serial, kernels.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nominal = 0
		for _, e := range res.ActiveEdges {
			nominal += e
		}
	}
	b.ReportMetric(float64(nominal)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	b.ReportMetric(float64(st.Stats().FarBytes)/float64(b.N), "far-B/run")
}

// BenchmarkEngineStoreBFSCache100 is the full-residency baseline: the
// whole container fits in the local tier, so steady state pays only
// pin/release accounting over the in-memory engine.
func BenchmarkEngineStoreBFSCache100(b *testing.B) { benchStoreBFS(b, 1.0) }

// BenchmarkEngineStoreBFSCache50 halves the local tier.
func BenchmarkEngineStoreBFSCache50(b *testing.B) { benchStoreBFS(b, 0.5) }

// BenchmarkEngineStoreBFSCache10 is the deep-pressure point: 10% of the
// working set local, the rest refetched through the far tier.
func BenchmarkEngineStoreBFSCache10(b *testing.B) { benchStoreBFS(b, 0.1) }
