package experiments

import (
	"context"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Cache is the tiering ablation: prior disaggregated systems (FAM-Graph
// and the far-memory works the paper surveys in Section III-C) attack
// data movement by caching hot edge data on the hosts. This experiment
// sweeps the host cache budget and asks how much cache a passive
// disaggregated system needs before it matches NDP offload — quantifying
// the paper's argument that tiering alone does not remove the fundamental
// movement cost.
func Cache(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "cache", Title: "Ablation: host edge-cache budget vs NDP offload (PageRank, twitter7 stand-in)", XLabel: "cache fraction"}
	g, err := dataset(cfg, gen.Twitter7)
	if err != nil {
		return nil, err
	}
	const parts = 8
	assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
	if err != nil {
		return nil, err
	}
	k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)

	// The NDP row and the zero budget price one cacheless execution; every
	// other budget executes again, since the cache is an execution input.
	uncached, err := priced(g, k, assign, &sim.DisaggregatedNDP{Topo: topo}, &sim.Disaggregated{Topo: topo})
	if err != nil {
		return nil, err
	}
	ndpBytes := uncached[0].TotalDataMovementBytes
	totalEdgeBytes := g.NumEdges() * kernels.EdgeBytes

	t := metrics.NewTable(a.Title, "Cache fraction", "Cached (MB)", "Moved (MB)", "vs NDP offload")
	cacheSeries := metrics.Series{Name: "cached-disaggregated"}
	ndpSeries := metrics.Series{Name: "ndp-offload"}
	crossover := -1.0
	fractions := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}
	for _, frac := range fractions {
		budget := int64(frac * float64(totalEdgeBytes))
		run := uncached[1]
		if budget > 0 {
			trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: assign, CacheBytes: budget})
			if err != nil {
				return nil, err
			}
			if run, err = (&sim.Disaggregated{Topo: topo}).Price(trace); err != nil {
				return nil, err
			}
		}
		moved := run.TotalDataMovementBytes
		t.AddRow(frac, float64(budget)/1e6, float64(moved)/1e6, ratio(moved, ndpBytes))
		cacheSeries.Values = append(cacheSeries.Values, float64(moved)/1e6)
		ndpSeries.Values = append(ndpSeries.Values, float64(ndpBytes)/1e6)
		if crossover < 0 && moved <= ndpBytes {
			crossover = frac
		}
	}
	a.Table = t
	a.Series = []metrics.Series{cacheSeries, ndpSeries}

	if crossover < 0 {
		note(a, "OK: no swept cache budget (up to 90%% of the edge list) matches NDP offload — tiering alone does not close the movement gap")
	} else if crossover >= 0.5 {
		note(a, "OK: the host must cache >= %.0f%% of the edge list to match NDP offload — tiering is a costly substitute", 100*crossover)
	} else {
		note(a, "MISMATCH: a %.0f%% cache already matches NDP — offload benefit smaller than expected", 100*crossover)
	}
	return a, nil
}
