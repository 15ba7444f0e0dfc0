package sim_test

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestOffloadedAgreesWithItsNodes holds every Record to one identity: the
// iteration offloaded exactly when at least one memory node did. It runs
// every engine under every registry policy on a uniform pool and on a
// pool whose odd nodes cannot run the kernel near data, so an engine
// that decides an iteration without reaching its nodes shows.
func TestOffloadedAgreesWithItsNodes(t *testing.T) {
	g, err := gen.Community(100, 2, 16, 0.85, gen.Config{Seed: 17, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	uniform := sim.DefaultTopology(2, parts)
	mixed := uniform
	mixed.MemDevices = make([]ndp.Device, parts)
	for p := range mixed.MemDevices {
		mixed.MemDevices[p] = ndp.DefaultMemoryDevice()
		if p%2 == 1 {
			mixed.MemDevices[p] = ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full}
		}
	}
	for _, k := range []kernels.Kernel{kernels.NewPageRank(5, 0.85), kernels.NewSSSP(0)} {
		trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: a})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []sim.Topology{uniform, mixed} {
			engines := []sim.Engine{&sim.Distributed{Topo: topo}, &sim.DistributedNDP{Topo: topo}, &sim.Disaggregated{Topo: topo}}
			labels := []string{"", "", ""}
			for _, name := range runtime.Names() {
				pol, err := runtime.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, &sim.DisaggregatedNDP{Topo: topo, Policy: pol, InNetworkAggregation: true})
				labels = append(labels, "/"+name)
			}
			for i, e := range engines {
				run, err := e.Price(trace)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range run.Records {
					anyNode := false
					for _, p := range rec.PerPartition {
						anyNode = anyNode || p.Offloaded
					}
					if rec.Offloaded != anyNode {
						t.Errorf("%s%s %s, %d per-node devices, it%d: Offloaded %v, a node offloaded %v",
							e.Name(), labels[i], k.Name(), len(topo.MemDevices), rec.Iteration, rec.Offloaded, anyNode)
					}
				}
			}
		}
	}
}
