package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// Example runs PageRank on the simulated disaggregated NDP system and
// prints the movement ledger's totals — the package's minimal workflow.
func Example() {
	g, err := gen.ComLiveJournal.Generate(0.125, gen.Config{Seed: 1, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(core.DisaggregatedNDP, core.WithMemoryNodes(8))
	if err != nil {
		log.Fatal(err)
	}
	run, err := sys.Engine().Run(context.Background(), g, kernels.NewPageRank(5, 0.85), core.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("engine:", run.Engine)
	fmt.Println("iterations:", run.Iterations)
	fmt.Println("offload supported:", run.OffloadSupported)
	// Output:
	// engine: disaggregated-ndp+inc
	// iterations: 5
	// offload supported: true
}

// ExampleSystem_Compare contrasts all four architectures of the paper's
// Table II on one workload and identical partitions.
func ExampleSystem_Compare() {
	g, err := gen.WikiTalk.Generate(0.125, gen.Config{Seed: 1, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(core.DisaggregatedNDP, core.WithMemoryNodes(4))
	if err != nil {
		log.Fatal(err)
	}
	runs, err := sys.Compare(context.Background(), g, kernels.NewBFS(0))
	if err != nil {
		log.Fatal(err)
	}
	for _, run := range runs {
		fmt.Println(run.Engine)
	}
	// Output:
	// distributed
	// distributed-ndp
	// disaggregated
	// disaggregated-ndp+inc
}

// ExampleSystem_Engine_pipeline composes kernels the way a production
// workflow does, each distributed stage reporting what it moved:
// connected components over the symmetrized graph, extraction of the
// largest component, a fresh partitioning of that subgraph across the
// pool for PageRank, and the top-ranked vertex mapped back to its
// original ID.
func ExampleSystem_Engine_pipeline() {
	g, err := gen.WikiTalk.Generate(0.125, gen.Config{Seed: 71, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.New(core.DisaggregatedNDP, core.WithMemoryNodes(8))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	und, err := g.Symmetrize()
	if err != nil {
		log.Fatal(err)
	}
	cc, err := sys.Engine().Run(ctx, und, kernels.NewConnectedComponents(), core.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[float64]int{}
	for _, label := range cc.Values {
		sizes[label]++
	}
	// The smallest label among the largest components, so the choice
	// does not depend on map order.
	best := -1.0
	for label, size := range sizes {
		if best < 0 || size > sizes[best] || (size == sizes[best] && label < best) {
			best = label
		}
	}
	fmt.Printf("cc: %d components, largest has %d of %d vertices\n", len(sizes), sizes[best], g.NumVertices())

	keep := make([]bool, g.NumVertices())
	for v, label := range cc.Values {
		keep[v] = label == best
	}
	sub, orig, err := g.InducedSubgraph(keep)
	if err != nil {
		log.Fatal(err)
	}

	pr, err := sys.Engine().Run(ctx, sub, kernels.NewPageRank(5, 0.85), core.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	top := 0
	for v, rank := range pr.Values {
		if rank > pr.Values[top] {
			top = v
		}
	}
	fmt.Printf("pagerank on the component: %d iterations, top vertex %d\n", pr.Iterations, orig[top])
	fmt.Println("pipeline moved:", graph.FormatBytes(cc.TotalDataMovementBytes+pr.TotalDataMovementBytes))
	// Output:
	// cc: 362 components, largest has 3721 of 4096 vertices
	// pagerank on the component: 5 iterations, top vertex 3
	// pipeline moved: 591.6 KiB
}
