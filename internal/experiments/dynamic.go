package experiments

import (
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Dynamic regenerates the Section IV-D analysis: per-iteration offload
// decisions versus static policies, across kernels and graph shapes. For
// every (dataset, kernel) pair it reports the total data movement under
// never-offload, always-offload, the degree-threshold heuristic, the full
// dynamic heuristic, and the post-hoc oracle — the paper's argument is
// that no static choice wins everywhere, so the runtime must decide
// dynamically.
func Dynamic(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "dyn", Title: "Section IV-D: offload policies — total data movement (MB)"}
	const parts = 8
	t := metrics.NewTable(a.Title, "Graph", "Kernel", "Never", "Always", "Threshold", "Heuristic", "Oracle", "Heuristic/Oracle")

	policies := []sim.OffloadPolicy{
		sim.NeverOffload{},
		sim.AlwaysOffload{},
		runtime.ThresholdPolicy{},
		runtime.Heuristic{},
		sim.Oracle{},
	}

	staticEverywhere := [2]bool{true, true} // [neverAlwaysWins, alwaysAlwaysWins]
	heuristicWorstRatio := 0.0
	heuristicStrictWins := 0
	for _, ds := range []gen.Dataset{gen.Twitter7, gen.ComLiveJournal, gen.WikiTalk} {
		g, err := dataset(cfg, ds)
		if err != nil {
			return nil, err
		}
		assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
		if err != nil {
			return nil, err
		}
		engines := make([]sim.Engine, len(policies))
		for i, pol := range policies {
			engines[i] = &sim.DisaggregatedNDP{Topo: topo, Policy: pol}
		}
		for _, kn := range []string{"pagerank", "pagerank-delta", "bfs", "cc"} {
			k, err := kernels.ByName(kn)
			if err != nil {
				return nil, err
			}
			runs, err := priced(g, k, assign, engines...)
			if err != nil {
				return nil, err
			}
			totals := make([]int64, len(runs))
			for i, run := range runs {
				totals[i] = run.TotalDataMovementBytes
			}
			never, always, heur, oracle := totals[0], totals[1], totals[3], totals[4]
			t.AddRow(ds.Name, kn,
				float64(totals[0])/1e6, float64(totals[1])/1e6, float64(totals[2])/1e6,
				float64(totals[3])/1e6, float64(totals[4])/1e6, ratio(heur, oracle))
			if never > oracle {
				staticEverywhere[0] = false
			}
			if always > oracle {
				staticEverywhere[1] = false
			}
			if r := ratio(heur, oracle); r > heuristicWorstRatio {
				heuristicWorstRatio = r
			}
			if heur < never && heur < always {
				heuristicStrictWins++
			}
		}
	}
	a.Table = t
	if !staticEverywhere[0] && !staticEverywhere[1] {
		note(a, "OK: neither static policy matches the oracle everywhere — dynamic decisions are required (IV-D)")
	} else {
		note(a, "MISMATCH: a static policy matched the oracle on every workload")
	}
	note(a, "dynamic heuristic stays within %.2fx of the oracle across all workloads", heuristicWorstRatio)
	if heuristicStrictWins > 0 {
		note(a, "OK: on %d workload(s) the per-iteration heuristic strictly beats BOTH static policies — only a dynamic decision captures those (shrinking-frontier kernels like pagerank-delta switch mid-run)", heuristicStrictWins)
	}
	return a, nil
}
