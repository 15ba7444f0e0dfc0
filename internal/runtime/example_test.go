package runtime_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// ExampleHeuristic watches the Section IV-D runtime decide, iteration by
// iteration, whether to ship the traversal to the memory nodes or fetch
// the frontier's edges — BFS on a web-crawl stand-in, under a hash
// partitioning and a min-cut one. Small frontiers are cheaper to fetch
// for and the peak is cheaper to offload under either; the min-cut
// partitioning shrinks what an offloaded iteration ships back, which
// tips the shrinking frontier of iteration 3 to offload as well.
func ExampleHeuristic() {
	g, err := gen.UK2005.Generate(0.125, gen.Config{Seed: 3, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	const parts = 8
	topo := sim.DefaultTopology(2, parts)
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.Multilevel{Seed: 3}} {
		assign, err := p.Partition(g, parts)
		if err != nil {
			log.Fatal(err)
		}
		trace, err := sim.Execute(context.Background(), g, kernels.NewBFS(0), sim.ExecConfig{Assign: assign})
		if err != nil {
			log.Fatal(err)
		}
		run, err := (&sim.DisaggregatedNDP{Topo: topo, Policy: runtime.Heuristic{}}).Price(trace)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: moved %s\n", p.Name(), graph.FormatBytes(run.TotalDataMovementBytes))
		for _, rec := range run.Records {
			choice := "fetch edges"
			if rec.Offloaded {
				choice = "offload traversal"
			}
			fmt.Printf("  iter %d: frontier %4d -> %s\n", rec.Iteration, rec.FrontierSize, choice)
		}
	}
	// Output:
	// hash: moved 655.2 KiB
	//   iter 0: frontier    1 -> fetch edges
	//   iter 1: frontier  271 -> fetch edges
	//   iter 2: frontier 2910 -> offload traversal
	//   iter 3: frontier  914 -> fetch edges
	// multilevel: moved 282.8 KiB
	//   iter 0: frontier    1 -> fetch edges
	//   iter 1: frontier  271 -> fetch edges
	//   iter 2: frontier 2910 -> offload traversal
	//   iter 3: frontier  914 -> offload traversal
}
