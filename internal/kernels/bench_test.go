package kernels

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// BenchmarkEngineEdgePath is the per-edge cost of the engine's loops
// alone: ns per nominal edge (elapsed over ΣActiveEdges, the frontier's
// out-edge volume in either direction) for the benchmark's four kernel
// classes on its graph — the weighted com-livejournal stand-in, scale 4 —
// through the serial push loop, the staged push loop with its merge, and
// forced pull where the kernel gathers — and, as staged-push-grid16, the
// staged push in the simulator's shape: the scale-1 graph under a 16-part
// ldg assignment as Options.Grid, with an observer reading every chunk's
// Partials and RemotePartials. Sourced kernels start at the
// highest-out-degree vertex. A change to pushSerial, pushChunk,
// mergeChunks or pullRange has a number to argue from here without a full
// bench/ run:
//
//	go test -run '^$' -bench EngineEdgePath -benchtime 5x -cpu 1,2 ./internal/kernels
func BenchmarkEngineEdgePath(b *testing.B) {
	cfg := gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true}
	g, err := gen.ComLiveJournal.Generate(4, cfg)
	mustNoErr(b, err)
	g.Transpose() // cached on the graph; keep its construction out of the pull rows
	small, err := gen.ComLiveJournal.Generate(1, cfg)
	mustNoErr(b, err)
	assign, err := partition.LDG{}.Partition(small, 16)
	mustNoErr(b, err)
	var lent int64
	grid16 := &Grid{Chunks: assign.K, ChunkOf: assign.Parts, Observe: func(it *Iteration) {
		for c := 0; c < assign.K; c++ {
			lent += it.Partials(c) + it.RemotePartials(c)
		}
	}}
	kernelsUnderTest := []struct {
		name string
		make func(hub graph.VertexID) Kernel
	}{
		{"bfs", func(hub graph.VertexID) Kernel { return NewBFS(hub) }},
		{"cc", func(graph.VertexID) Kernel { return NewConnectedComponents() }},
		{"sssp", func(hub graph.VertexID) Kernel { return NewSSSP(hub) }},
		{"pagerank", func(graph.VertexID) Kernel { return NewPageRank(DefaultPageRankIterations, DefaultDamping) }},
	}
	paths := []struct {
		name    string
		g       *graph.Graph
		machine Machine
		opt     Options
	}{
		{"serial-push", g, Serial, Options{Direction: DirectionPush}},
		{"staged-push", g, Staged, Options{Direction: DirectionPush}},
		{"staged-push-grid16", small, Staged, Options{Direction: DirectionPush, Grid: grid16}},
		{"pull", g, Serial, Options{Direction: DirectionPull}},
	}
	for _, k := range kernelsUnderTest {
		for _, p := range paths {
			hub, _ := p.g.MaxOutDegree()
			if _, gathers := k.make(hub).(GatherKernel); p.opt.Direction == DirectionPull && !gathers {
				continue
			}
			b.Run(k.name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				var nominal int64
				for i := 0; i < b.N; i++ {
					res, err := RunOn(context.Background(), p.g, k.make(hub), p.machine, p.opt)
					mustNoErr(b, err)
					for _, e := range res.ActiveEdges {
						nominal += e
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nominal), "ns/edge")
			})
		}
	}
}
