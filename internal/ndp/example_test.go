package ndp_test

import (
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/sim"
)

// ExampleDevice_Supports shows Table I's device capabilities gating and
// penalising kernel offload: a PNM part runs every kernel natively, a PIM
// part pays for emulated floating point, and an in-network device cannot
// run a traversal at all — in which case the simulated system keeps the
// traversal on the hosts and says why.
func ExampleDevice_Supports() {
	ks := []kernels.Kernel{kernels.NewBFS(0), kernels.NewSSSP(0), kernels.NewPageRank(5, 0.85)}
	for _, name := range []string{"CXL-CMS", "UPMEM", "SwitchML"} {
		dev, err := ndp.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range ks {
			dec := dev.Supports(k)
			if dec.OK {
				fmt.Printf("%-8s %-8s offloads at %.0fx compute time\n", dev.Name, k.Name(), dec.Penalty)
			} else {
				fmt.Printf("%-8s %-8s stays on the hosts\n", dev.Name, k.Name())
			}
		}
	}

	g, err := gen.WikiTalk.Generate(0.125, gen.Config{Seed: 5, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	assign, err := partition.Hash{}.Partition(g, 4)
	if err != nil {
		log.Fatal(err)
	}
	topo := sim.DefaultTopology(2, 4)
	topo.MemDevice, err = ndp.ByName("SwitchML")
	if err != nil {
		log.Fatal(err)
	}
	run, err := (&sim.DisaggregatedNDP{Topo: topo, Assign: assign}).Run(g, kernels.NewBFS(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("offload supported:", run.OffloadSupported)
	fmt.Println("note:", run.OffloadNote)
	// Output:
	// CXL-CMS  bfs      offloads at 1x compute time
	// CXL-CMS  sssp     offloads at 1x compute time
	// CXL-CMS  pagerank offloads at 1x compute time
	// UPMEM    bfs      offloads at 1x compute time
	// UPMEM    sssp     offloads at 4x compute time
	// UPMEM    pagerank offloads at 4x compute time
	// SwitchML bfs      stays on the hosts
	// SwitchML sssp     stays on the hosts
	// SwitchML pagerank stays on the hosts
	// offload supported: false
	// note: INC devices aggregate in-flight data; they cannot run traversals
}
