package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/store"
)

// BenchmarkStoreEngine is ooc-resident's job loop alone: the weighted
// com-livejournal stand-in at scale 4 as a container of 256 KiB segments,
// every segment resident after a warm-up sweep, and the four kernel
// classes through StoreEngine — the Serial machine with the store as its
// source. It reports ns per nominal edge (elapsed over the frontiers'
// out-edge volume, which the same push on the in-memory graph counts):
//
//	go test -run '^$' -bench StoreEngine -benchtime 5x ./internal/core
func BenchmarkStoreEngine(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(4, gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	data, err := store.EncodeGraph(g, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.OpenBytes(data, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	eng := StoreEngine(st)
	ctx := context.Background()
	hub, _ := g.MaxOutDegree()
	for _, k := range []struct {
		name string
		make func() kernels.Kernel
	}{
		{"bfs", func() kernels.Kernel { return kernels.NewBFS(hub) }},
		{"cc", func() kernels.Kernel { return kernels.NewConnectedComponents() }},
		{"sssp", func() kernels.Kernel { return kernels.NewSSSP(hub) }},
		{"pagerank", func() kernels.Kernel {
			return kernels.NewPageRank(kernels.DefaultPageRankIterations, kernels.DefaultDamping)
		}},
	} {
		ref, err := kernels.RunSerialWith(g, k.make(), kernels.Options{Direction: kernels.DirectionPush})
		if err != nil {
			b.Fatal(err)
		}
		var nominal int64
		for _, e := range ref.ActiveEdges {
			nominal += e
		}
		if _, err := eng.Run(ctx, nil, k.make(), RunConfig{}); err != nil { // warm the tier
			b.Fatal(err)
		}
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, nil, k.make(), RunConfig{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nominal*int64(b.N)), "ns/edge")
		})
	}
}
