package kernels

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkEngineEdgePath is the per-edge cost of the engine's loops
// alone: ns per nominal edge (elapsed over ΣActiveEdges, the frontier's
// out-edge volume in either direction) for the benchmark's four kernel
// classes on its graph — the weighted com-livejournal stand-in, scale 4 —
// through the serial push loop, the staged push loop with its merge, and
// forced pull where the kernel gathers. Sourced kernels start at the
// highest-out-degree vertex. A change to pushSerial, pushChunk,
// mergeChunks or pullRange has a number to argue from here without a full
// bench/ run:
//
//	go test -run '^$' -bench EngineEdgePath -benchtime 5x -cpu 2 ./internal/kernels
func BenchmarkEngineEdgePath(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(4, gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true})
	mustNoErr(b, err)
	g.Transpose() // cached on the graph; keep its construction out of the pull rows
	hub, _ := g.MaxOutDegree()
	kernelsUnderTest := []struct {
		name string
		make func() Kernel
	}{
		{"bfs", func() Kernel { return NewBFS(hub) }},
		{"cc", func() Kernel { return NewConnectedComponents() }},
		{"sssp", func() Kernel { return NewSSSP(hub) }},
		{"pagerank", func() Kernel { return NewPageRank(DefaultPageRankIterations, DefaultDamping) }},
	}
	paths := []struct {
		name    string
		machine Machine
		dir     Direction
	}{
		{"serial-push", Serial, DirectionPush},
		{"staged-push", Staged, DirectionPush},
		{"pull", Serial, DirectionPull},
	}
	for _, k := range kernelsUnderTest {
		for _, p := range paths {
			if _, gathers := k.make().(GatherKernel); p.dir == DirectionPull && !gathers {
				continue
			}
			b.Run(k.name+"/"+p.name, func(b *testing.B) {
				var nominal int64
				for i := 0; i < b.N; i++ {
					res, err := runInMemory(g, k.make(), p.machine, Options{Direction: p.dir})
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
