package experiments

import (
	"context"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Hetero is the device-diversity ablation: Table I's point is that the
// NDP hardware landscape is heterogeneous — full-FP PNM parts, primitive-
// FP PIM parts, FP-less prototypes — and Section IV concludes the runtime
// must gate offload per device. This experiment runs PageRank (needs FP)
// and BFS (integer-only) over pools of each composition and a mixed pool,
// showing movement and modeled time shift with device capability exactly
// as the paper's offload-eligibility argument predicts.
func Hetero(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "hetero", Title: "Ablation: device heterogeneity vs offload (twitter7 stand-in, 8 memory nodes)"}
	g, err := dataset(cfg, gen.Twitter7)
	if err != nil {
		return nil, err
	}
	const parts = 8
	assign, baseTopo, err := partitioned(cfg, g, parts, partition.Hash{})
	if err != nil {
		return nil, err
	}

	cms := ndp.DefaultMemoryDevice()
	upmem, err := ndp.ByName("UPMEM")
	if err != nil {
		return nil, err
	}
	noFP := ndp.Device{Name: "proto-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full, InternalBandwidthGBps: 800}

	pools := []struct {
		name    string
		devices []ndp.Device
	}{
		{"all CXL-CMS", uniformPool(cms, parts)},
		{"all UPMEM", uniformPool(upmem, parts)},
		{"all proto-nofp", uniformPool(noFP, parts)},
		{"mixed CMS/proto-nofp", alternatingPool(cms, noFP, parts)},
	}

	// A device gates only how an execution is priced, so each kernel
	// executes once and prices under every pool.
	kns := []string{"pagerank", "bfs"}
	ks := make([]kernels.Kernel, len(kns))
	traces := make([]*sim.Trace, len(kns))
	for i, kn := range kns {
		if ks[i], err = kernels.ByName(kn); err != nil {
			return nil, err
		}
		if traces[i], err = sim.Execute(context.Background(), g, ks[i], sim.ExecConfig{Assign: assign}); err != nil {
			return nil, err
		}
	}

	t := metrics.NewTable(a.Title, "Pool", "Kernel", "Offload nodes", "Moved (MB)", "Est time (ms)")
	moved := map[string]int64{}
	for _, pool := range pools {
		topo := baseTopo
		topo.MemDevices = pool.devices
		for i, kn := range kns {
			k := ks[i]
			run, err := (&sim.DisaggregatedNDP{Topo: topo}).Price(traces[i])
			if err != nil {
				return nil, err
			}
			offNodes := 0
			for p := 0; p < parts; p++ {
				dev := topo.DeviceFor(p)
				if dev.Supports(k.Name(), k.Traits()).OK {
					offNodes++
				}
			}
			t.AddRow(pool.name, kn, offNodes, float64(run.TotalDataMovementBytes)/1e6, run.TotalSeconds*1e3)
			moved[pool.name+"/"+kn] = run.TotalDataMovementBytes
		}
	}
	a.Table = t

	if moved["all proto-nofp/pagerank"] > moved["all CXL-CMS/pagerank"] {
		note(a, "OK: FP-less pool cannot offload pagerank — movement reverts to edge fetching (Table I gating)")
	} else {
		note(a, "MISMATCH: FP-less pool matched full-FP pool on pagerank")
	}
	if moved["all proto-nofp/bfs"] == moved["all CXL-CMS/bfs"] {
		note(a, "OK: integer-only BFS offloads on every pool — capability gating is kernel-specific")
	} else {
		note(a, "MISMATCH: bfs movement differs across FP capabilities")
	}
	mixed, lo, hi := moved["mixed CMS/proto-nofp/pagerank"], moved["all CXL-CMS/pagerank"], moved["all proto-nofp/pagerank"]
	if lo < mixed && mixed < hi {
		note(a, "OK: mixed pool lands between the pure pools — per-node gating, not all-or-nothing (the paper's 'which operations to offload, and where')")
	} else {
		note(a, "MISMATCH: mixed pool %d not between %d and %d", mixed, lo, hi)
	}
	return a, nil
}

func uniformPool(d ndp.Device, n int) []ndp.Device {
	out := make([]ndp.Device, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func alternatingPool(a, b ndp.Device, n int) []ndp.Device {
	out := make([]ndp.Device, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}
