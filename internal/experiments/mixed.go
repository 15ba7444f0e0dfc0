package experiments

import (
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Mixed is the "where to offload" ablation (an extension beyond the
// paper's figures, directly following its Section IV agenda): it compares
// global per-iteration offload decisions against per-memory-node
// decisions. The gap between the global oracle and the mixed oracle is
// the movement a runtime leaves on the table when it can only offload
// all-or-nothing; the partition heuristic shows how much of that gap
// pre-traversal metadata recovers.
func Mixed(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "mixed", Title: "Ablation: global vs per-partition offload decisions — total movement (MB)"}
	const parts = 8
	t := metrics.NewTable(a.Title,
		"Graph", "Kernel", "Global oracle", "Mixed oracle", "Partition heuristic", "Mixed/Global")

	specs := []struct {
		ds  gen.Dataset
		kns []string
	}{
		{gen.Twitter7, []string{"pagerank", "bfs"}},
		{gen.ComLiveJournal, []string{"pagerank", "cc"}},
		{gen.WikiTalk, []string{"pagerank", "bfs"}},
	}
	anyStrictWin := false
	violations := 0
	for _, s := range specs {
		g, err := dataset(cfg, s.ds)
		if err != nil {
			return nil, err
		}
		assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
		if err != nil {
			return nil, err
		}
		for _, kn := range s.kns {
			k, err := kernels.ByName(kn)
			if err != nil {
				return nil, err
			}
			runs, err := priced(g, k, assign,
				&sim.DisaggregatedNDP{Topo: topo, Policy: sim.Oracle{}},
				&sim.DisaggregatedNDP{Topo: topo, Policy: sim.MixedOracle{}},
				&sim.DisaggregatedNDP{Topo: topo, Policy: runtime.PartitionHeuristic{}})
			if err != nil {
				return nil, err
			}
			global, mixed, heur := runs[0].TotalDataMovementBytes, runs[1].TotalDataMovementBytes, runs[2].TotalDataMovementBytes
			t.AddRow(s.ds.Name, kn, float64(global)/1e6, float64(mixed)/1e6, float64(heur)/1e6, ratio(mixed, global))
			if mixed < global {
				anyStrictWin = true
			}
			if mixed > global {
				violations++
			}
		}
	}
	a.Table = t
	if violations == 0 {
		note(a, "OK: per-partition decisions never move more than global decisions (dominance invariant)")
	} else {
		note(a, "MISMATCH: mixed oracle exceeded global oracle on %d workloads", violations)
	}
	if anyStrictWin {
		note(a, "OK: per-partition control strictly reduces movement on at least one workload — the finer-grained offload mechanism pays")
	} else {
		note(a, "note: hash partitions were homogeneous enough that global decisions matched per-partition ones here")
	}
	return a, nil
}
