package experiments

import (
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Energy is the energy-efficiency ablation. The paper motivates NDP
// partly on energy grounds (its Graphicionado citation: near-memory
// accelerators can be "more energy efficient than general-purpose
// servers"); this experiment quantifies the effect in the simulator's
// energy model: near-data traversal saves the interconnect crossing for
// edge data, pays cheaper on-module DRAM access, and runs edge arithmetic
// on simpler cores.
func Energy(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "energy", Title: "Ablation: modeled energy per architecture (millijoules)"}
	const parts = 16
	t := metrics.NewTable(a.Title, "Graph", "Architecture", "Moved (MB)", "Energy (mJ)", "vs distributed")

	for _, ds := range []gen.Dataset{gen.Twitter7, gen.ComLiveJournal} {
		g, err := dataset(cfg, ds)
		if err != nil {
			return nil, err
		}
		assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
		if err != nil {
			return nil, err
		}
		runs, err := priced(g, kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping), assign,
			&sim.Distributed{Topo: topo},
			&sim.DistributedNDP{Topo: topo},
			&sim.Disaggregated{Topo: topo},
			&sim.DisaggregatedNDP{Topo: topo, InNetworkAggregation: true})
		if err != nil {
			return nil, err
		}
		energies := map[string]float64{}
		for _, run := range runs {
			energies[run.Engine] = run.TotalEnergyJoules
		}
		base := energies["distributed"]
		for _, run := range runs {
			t.AddRow(ds.Name, run.Engine, float64(run.TotalDataMovementBytes)/1e6,
				run.TotalEnergyJoules*1e3, run.TotalEnergyJoules/base)
		}
		if energies["distributed-ndp"] >= energies["distributed"] {
			note(a, "MISMATCH: %s: distributed NDP energy not below distributed", ds.Name)
		} else {
			note(a, "OK: %s: near-memory acceleration cuts distributed energy %.2fx", ds.Name,
				energies["distributed"]/energies["distributed-ndp"])
		}
		if energies["disaggregated-ndp+inc"] >= energies["disaggregated"] {
			note(a, "MISMATCH: %s: disaggregated NDP energy not below passive disaggregation", ds.Name)
		} else {
			note(a, "OK: %s: NDP offload cuts disaggregated energy %.2fx", ds.Name,
				energies["disaggregated"]/energies["disaggregated-ndp+inc"])
		}
	}
	a.Table = t
	return a, nil
}
