package cluster

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
)

func BenchmarkClusterPageRank(b *testing.B) {
	g, err := gen.Community(4000, 16, 8, 0.85, gen.Config{Seed: 23, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	a, err := partition.Hash{}.Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	k := kernels.NewPageRank(5, 0.85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, k, a, Config{ComputeNodes: 2, Aggregate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRun is the actor cluster alone at the shape bench/'s
// sim-sweep runs it: the com-livejournal stand-in at scale 1 (seed 42),
// ldg over 16 memory nodes, 2 compute nodes, in-network aggregation on,
// and for the faulted row the benchmark's plan (5% drops on both link
// classes, memory node 1 crashing at iteration 1). It reports ns per
// nominal edge — elapsed over the out-edge volume of every iteration's
// active set, the serial engine's ΣActiveEdges — so a change to what the
// actors store has a number to argue from without a full bench/ run:
//
//	go test -run '^$' -bench ClusterRun -benchtime 5x -cpu 2 ./internal/cluster
func BenchmarkClusterRun(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(1, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	a, err := partition.LDG{}.Partition(g, 16)
	if err != nil {
		b.Fatal(err)
	}
	hub, _ := g.MaxOutDegree()
	plan := FaultPlan{
		Seed:      42,
		Update:    LinkFaults{Drop: 0.05},
		Writeback: LinkFaults{Drop: 0.05},
		Crash:     map[int]int{1: 1},
	}
	for _, c := range []struct {
		name  string
		k     kernels.Kernel
		fault FaultPlan
	}{
		{"bfs", kernels.NewBFS(hub), FaultPlan{}},
		{"pagerank", kernels.NewPageRank(10, kernels.DefaultDamping), FaultPlan{}},
		{"pagerank-faulted", kernels.NewPageRank(10, kernels.DefaultDamping), plan},
	} {
		b.Run(c.name, func(b *testing.B) {
			ref, err := kernels.RunSerialWith(g, c.k, kernels.Options{Direction: kernels.DirectionPush})
			if err != nil {
				b.Fatal(err)
			}
			var nominal int64
			for _, e := range ref.ActiveEdges {
				nominal += e
			}
			cfg := Config{ComputeNodes: 2, Aggregate: true, Fault: c.fault}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, c.k, a, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*nominal), "ns/edge")
		})
	}
}
