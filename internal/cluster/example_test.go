package cluster_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
)

// ExampleRun executes the disaggregated NDP architecture as real
// concurrent actors — memory nodes traversing their partitions, a switch
// aggregating in flight, compute nodes applying and writing back — and
// checks the two properties the cluster exists to demonstrate: the bytes
// counted off the channels are exactly the analytical simulator's
// prediction, and a hostile fabric (seeded drops, duplicates, delays and
// one crashed memory node) changes the recovery work but not one bit of
// the values.
func ExampleRun() {
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 31, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	const parts = 4
	assign, err := partition.Multilevel{Seed: 31}.Partition(g, parts)
	if err != nil {
		log.Fatal(err)
	}
	k := kernels.NewPageRank(4, 0.85)

	clean, err := cluster.Run(context.Background(), g, k, assign, cluster.Config{ComputeNodes: 2, Aggregate: true})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: assign})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := (&sim.DisaggregatedNDP{Topo: sim.DefaultTopology(2, parts), InNetworkAggregation: true}).Price(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured traffic equals simulated movement:", clean.Traffic.Total() == pred.TotalDataMovementBytes)
	for i, tr := range clean.PerIteration {
		if tr.Total() != pred.Records[i].DataMovementBytes {
			fmt.Println("iteration", i, "differs")
		}
	}

	faulty, err := cluster.Run(context.Background(), g, k, assign, cluster.Config{ComputeNodes: 2, Aggregate: true, Fault: cluster.FaultPlan{
		Seed:      2024,
		Update:    cluster.LinkFaults{Drop: 0.2, Duplicate: 0.3, Delay: 0.1},
		Writeback: cluster.LinkFaults{Drop: 0.1},
		Crash:     map[int]int{3: 2},
	}})
	if err != nil {
		log.Fatal(err)
	}
	f := faulty.Faults
	fmt.Printf("injected: %d drops, %d duplicates, %d delays, %d crash\n", f.Drops, f.Duplicates, f.Delays, f.Crashes)
	fmt.Printf("recovery: %d retries, %d partitions re-dispatched\n", f.Retries, f.Redispatches)
	same := len(faulty.Values) == len(clean.Values)
	for v := range clean.Values {
		same = same && faulty.Values[v] == clean.Values[v]
	}
	fmt.Println("values bit-identical to the fault-free run:", same)
	// Output:
	// measured traffic equals simulated movement: true
	// injected: 48 drops, 31 duplicates, 14 delays, 1 crash
	// recovery: 48 retries, 1 partitions re-dispatched
	// values bit-identical to the fault-free run: true
}
