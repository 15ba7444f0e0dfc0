package experiments

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Straggler is the partition-balance ablation. NDP traversal time is
// governed by the slowest memory node (memory-capacity-proportional
// bandwidth means each node processes its own share), so *edge*-balanced
// partitioning matters for time even when it barely changes movement: a
// vertex-balanced split of a skewed graph parks the hubs' edge lists on
// one node and serializes the pool behind it. This quantifies a runtime
// concern the paper's byte-level analysis does not surface.
func Straggler(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "straggler", Title: "Ablation: partition balance vs NDP traversal time (PageRank, twitter7 stand-in, 16 memory nodes)"}
	g, err := dataset(cfg, gen.Twitter7)
	if err != nil {
		return nil, err
	}
	const parts = 16
	k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)

	t := metrics.NewTable(a.Title, "Partitioner", "Edge imbalance", "Moved (MB)", "Traverse phase (us)", "Total est (ms)")
	traverse := map[string]float64{}
	for _, p := range []partition.Partitioner{partition.Range{}, partition.Chunk{}, partition.Hash{}} {
		assign, err := p.Partition(g, parts)
		if err != nil {
			return nil, err
		}
		topo := sim.DefaultTopology(core.DefaultSpec().Computes, parts)
		runs, err := priced(g, k, assign, &sim.DisaggregatedNDP{Topo: topo})
		if err != nil {
			return nil, err
		}
		run := runs[0]
		// Traversal-phase time: per iteration the pool finishes when the
		// most loaded memory node finishes streaming and processing its
		// share. Reconstructed from the per-partition records.
		var tTraverse float64
		for _, rec := range run.Records {
			var maxEdgeBytes int64
			for _, pr := range rec.PerPartition {
				if pr.EdgeBytes > maxEdgeBytes {
					maxEdgeBytes = pr.EdgeBytes
				}
			}
			stream := float64(maxEdgeBytes) / (topo.MemDevice.InternalBandwidthGBps * 1e9)
			compute := float64(maxEdgeBytes) / kernels.EdgeBytes * k.Traits().FLOPsPerEdge / (sim.MemDeviceGFlops * 1e9)
			if compute > stream {
				stream = compute
			}
			tTraverse += stream
		}
		q := partition.Evaluate(g, assign)
		t.AddRow(p.Name(), q.EdgeImbalance, float64(run.TotalDataMovementBytes)/1e6,
			tTraverse*1e6, run.TotalSeconds*1e3)
		traverse[p.Name()] = tTraverse
	}
	a.Table = t
	if traverse["chunk"] < traverse["range"] {
		note(a, "OK: edge-balanced chunking speeds the traversal phase %.2fx over vertex-balanced ranges — the straggler memory node, not total bytes, bounds NDP traversal", traverse["range"]/traverse["chunk"])
	} else {
		note(a, "MISMATCH: edge balancing did not improve the straggler traversal (range %.1f us, chunk %.1f us)",
			traverse["range"]*1e6, traverse["chunk"]*1e6)
	}
	note(a, "end-to-end time at this scale is interconnect-dominated; the traversal column isolates the pool-side effect")
	return a, nil
}
