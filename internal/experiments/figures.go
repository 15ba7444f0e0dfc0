package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Fig4 regenerates Figure 4: the compute and memory requirements of four
// kernels (PR, CC, SSSP, BFS) on the uk-2005 and twitter7 stand-ins. The
// demand measures follow the workload-characterization convention the
// figure relies on: memory demand is the total bytes the traversal streams
// (edge entries plus property reads/writes), compute demand the total
// arithmetic operations. The paper's observation — the orange and purple
// boxes — is that the two demands decouple, motivating disaggregation.
func Fig4(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "fig4", Title: "Figure 4: compute vs memory requirements per kernel and graph"}
	t := metrics.NewTable(a.Title, "Graph", "Kernel", "Memory demand (MB)", "Compute demand (MFLOP)", "Mem/Compute ratio")

	type point struct {
		memMB, cmpMF float64
	}
	points := map[string]point{}

	for _, ds := range []gen.Dataset{gen.UK2005, gen.Twitter7} {
		g, err := dataset(cfg, ds)
		if err != nil {
			return nil, err
		}
		ks := []kernels.Kernel{
			kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping),
			kernels.NewConnectedComponents(),
			kernels.NewSSSP(0),
			kernels.NewBFS(0),
		}
		// A 1-partition disaggregated run records the per-iteration work
		// quantities without distribution effects.
		assign, topo, err := partitioned(cfg, g, 1, partition.Hash{})
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			runs, err := priced(g, k, assign, &sim.Disaggregated{Topo: topo})
			if err != nil {
				return nil, err
			}
			run := runs[0]
			var memBytes, flops float64
			tr := k.Traits()
			for _, rec := range run.Records {
				// Traversal streams edge entries and source properties;
				// the update phase reads and writes destination properties.
				memBytes += float64(rec.ActiveEdges*kernels.EdgeBytes) +
					float64(rec.FrontierSize*kernels.PropertyBytes) +
					float64(rec.Applies*2*kernels.PropertyBytes)
				flops += float64(rec.ActiveEdges)*tr.FLOPsPerEdge + float64(rec.Applies)*tr.FLOPsPerApply
			}
			memMB := memBytes / 1e6
			cmpMF := flops / 1e6
			t.AddRow(ds.Name, k.Name(), memMB, cmpMF, memMB/maxF(cmpMF, 1e-9))
			points[ds.Name+"/"+k.Name()] = point{memMB, cmpMF}
		}
	}
	a.Table = t

	// Paper-shape checks: PR is the compute-heavy kernel, BFS the lightest
	// on both axes; requirements differ across kernels on the same graph
	// (the decoupling argument).
	for _, dsName := range []string{gen.UK2005.Name, gen.Twitter7.Name} {
		pr := points[dsName+"/pagerank"]
		bfs := points[dsName+"/bfs"]
		if pr.cmpMF > bfs.cmpMF && pr.memMB > bfs.memMB {
			note(a, "OK: %s: pagerank demands dominate bfs on both axes", dsName)
		} else {
			note(a, "MISMATCH: %s: pagerank (%.1f MB, %.1f MF) vs bfs (%.1f MB, %.1f MF)",
				dsName, pr.memMB, pr.cmpMF, bfs.memMB, bfs.cmpMF)
		}
	}
	prUK, prTW := points[gen.UK2005.Name+"/pagerank"], points[gen.Twitter7.Name+"/pagerank"]
	note(a, "memory decouples from compute: pagerank mem/compute ratio %.2f (uk-2005) vs %.2f (twitter7)",
		prUK.memMB/maxF(prUK.cmpMF, 1e-9), prTW.memMB/maxF(prTW.cmpMF, 1e-9))
	return a, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Fig5 regenerates Figure 5: the impact of offloading graph traversals on
// data movement, for PageRank across the four dataset stand-ins at a
// moderate pool width. The paper's headline: offload slashes movement on
// dense natural graphs but *increases* it on wiki-Talk, whose tiny
// fan-outs make 16-byte updates costlier than 8-byte edge fetches.
func Fig5(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "fig5", Title: "Figure 5: data movement with vs without NDP traversal offload (PageRank)", XLabel: "dataset"}
	const parts = 8
	t := metrics.NewTable(a.Title, "Graph", "No offload (MB)", "Offload (MB)", "Offload/NoOffload")
	var noSeries, offSeries metrics.Series
	noSeries.Name = "no-offload"
	offSeries.Name = "ndp-offload"

	// Datasets are independent: generate, partition, and run them
	// concurrently, then fold rows/series/notes in dataset order.
	dss := gen.Datasets()
	type fig5Point struct{ noBytes, offBytes int64 }
	points5 := make([]fig5Point, len(dss))
	if err := forEach(len(dss), func(i int) error {
		g, err := dataset(cfg, dss[i])
		if err != nil {
			return err
		}
		assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
		if err != nil {
			return err
		}
		k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)
		runs, err := priced(g, k, assign, &sim.Disaggregated{Topo: topo}, &sim.DisaggregatedNDP{Topo: topo})
		if err != nil {
			return err
		}
		points5[i] = fig5Point{runs[0].TotalDataMovementBytes, runs[1].TotalDataMovementBytes}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, ds := range dss {
		noBytes, offBytes := points5[i].noBytes, points5[i].offBytes
		t.AddRow(ds.Name, float64(noBytes)/1e6, float64(offBytes)/1e6, ratio(offBytes, noBytes))
		noSeries.Values = append(noSeries.Values, float64(noBytes)/1e6)
		offSeries.Values = append(offSeries.Values, float64(offBytes)/1e6)

		r := ratio(offBytes, noBytes)
		switch ds.Name {
		case gen.WikiTalk.Name:
			if r > 1 {
				note(a, "OK: %s: offload increases movement (%.2fx), as in the paper", ds.Name, r)
			} else {
				note(a, "MISMATCH: %s: offload ratio %.2f, paper expects > 1", ds.Name, r)
			}
		default:
			if r < 1 {
				note(a, "OK: %s: offload reduces movement (%.2fx)", ds.Name, r)
			} else {
				note(a, "MISMATCH: %s: offload ratio %.2f, paper expects < 1", ds.Name, r)
			}
		}
	}
	a.Table = t
	a.Series = []metrics.Series{noSeries, offSeries}
	return a, nil
}

// Fig6 regenerates Figure 6: data movement versus partition count for
// PageRank on the com-LiveJournal stand-in, with four deployment series:
// no NDP, NDP with hash partitioning, NDP with min-cut (METIS-style)
// partitioning, and NDP + min-cut + in-network aggregation.
func Fig6(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "fig6", Title: "Figure 6: partitioning and in-network aggregation vs data movement (PageRank, com-LiveJournal stand-in)", XLabel: "partitions"}
	g, err := dataset(cfg, gen.ComLiveJournal)
	if err != nil {
		return nil, err
	}
	k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)
	sweep := []int{2, 4, 8, 16, 32, 64}

	t := metrics.NewTable(a.Title, "Partitions", "No NDP (MB)", "NDP hash (MB)", "NDP min-cut (MB)", "NDP min-cut+INC (MB)")
	series := []metrics.Series{
		{Name: "no-ndp"}, {Name: "ndp-hash"}, {Name: "ndp-mincut"}, {Name: "ndp-mincut+inc"},
	}
	// Sweep points are independent: partition and run each width
	// concurrently, then fold rows/series in sweep order.
	allVals := make([][4]int64, len(sweep))
	if err := forEach(len(sweep), func(si int) error {
		parts := sweep[si]
		hashA, topo, err := partitioned(cfg, g, parts, partition.Hash{})
		if err != nil {
			return err
		}
		cutA, _, err := partitioned(cfg, g, parts, partition.Multilevel{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		hash, err := priced(g, k, hashA, &sim.Disaggregated{Topo: topo}, &sim.DisaggregatedNDP{Topo: topo})
		if err != nil {
			return err
		}
		cut, err := priced(g, k, cutA, &sim.DisaggregatedNDP{Topo: topo}, &sim.DisaggregatedNDP{Topo: topo, InNetworkAggregation: true})
		if err != nil {
			return err
		}
		for i, run := range append(hash, cut...) {
			allVals[si][i] = run.TotalDataMovementBytes
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var last [4]int64
	for si, parts := range sweep {
		vals := allVals[si]
		t.AddRow(parts, float64(vals[0])/1e6, float64(vals[1])/1e6, float64(vals[2])/1e6, float64(vals[3])/1e6)
		for i := range series {
			series[i].Values = append(series[i].Values, float64(vals[i])/1e6)
		}
		last = vals
	}
	a.Table = t
	a.Series = series

	// Paper-shape checks at the highest partition count.
	p := sweep[len(sweep)-1]
	if last[1] > last[2] {
		note(a, "OK: at %d partitions min-cut partitioning cuts NDP movement %.2fx vs hash", p, ratio(last[1], last[2]))
	} else {
		note(a, "MISMATCH: min-cut (%d) not below hash (%d) at %d partitions", last[2], last[1], p)
	}
	if last[2] > last[3] {
		note(a, "OK: in-network aggregation cuts a further %.2fx at %d partitions", ratio(last[2], last[3]), p)
	} else {
		note(a, "MISMATCH: aggregation did not reduce movement at %d partitions", p)
	}
	if last[3] < last[0] {
		note(a, "OK: NDP + min-cut + INC beats no-NDP at scale (%.2fx lower)", ratio(last[0], last[3]))
	} else {
		note(a, "MISMATCH: full NDP stack (%d) above no-NDP (%d) at %d partitions", last[3], last[0], p)
	}
	// The growth effect: NDP-hash movement must grow with partition count.
	first := series[1].Values[0]
	lastHash := series[1].Values[len(series[1].Values)-1]
	if lastHash > first {
		note(a, "OK: NDP movement grows with distribution scale (%.1f -> %.1f MB)", first, lastHash)
	} else {
		note(a, "MISMATCH: NDP movement did not grow with partitions")
	}
	return a, nil
}

// fig7 runs one per-iteration movement comparison (the three panels of
// Figure 7 share this implementation).
func fig7(cfg Config, id, panel string, ds gen.Dataset, mk func(Config) kernels.Kernel, parts int) (*Artifact, error) {
	cfg = cfg.withDefaults()
	k := mk(cfg)
	a := &Artifact{
		ID:     id,
		Title:  fmt.Sprintf("Figure 7%s: per-iteration data movement — %s, %s, %d partitions", panel, ds.Name, k.Name(), parts),
		XLabel: "iteration",
	}
	g, err := dataset(cfg, ds)
	if err != nil {
		return nil, err
	}
	if parts > g.NumVertices() {
		return nil, fmt.Errorf("experiments: %s: %d partitions exceed %d vertices (raise Scale)", id, parts, g.NumVertices())
	}
	assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
	if err != nil {
		return nil, err
	}
	runs, err := priced(g, k, assign, &sim.Disaggregated{Topo: topo}, &sim.DisaggregatedNDP{Topo: topo})
	if err != nil {
		return nil, err
	}
	noRun, ndpRun := runs[0], runs[1]
	t := metrics.NewTable(a.Title, "Iteration", "Frontier", "Active edges", "No NDP (KB)", "NDP (KB)", "NDP wins")
	var noS, ndpS metrics.Series
	noS.Name, ndpS.Name = "no-ndp", "ndp"
	ndpWins, total := 0, 0
	for i := range noRun.Records {
		nb := noRun.Records[i].DataMovementBytes
		ob := ndpRun.Records[i].DataMovementBytes
		t.AddRow(i, noRun.Records[i].FrontierSize, noRun.Records[i].ActiveEdges,
			float64(nb)/1e3, float64(ob)/1e3, ob < nb)
		noS.Values = append(noS.Values, float64(nb)/1e3)
		ndpS.Values = append(ndpS.Values, float64(ob)/1e3)
		total++
		if ob < nb {
			ndpWins++
		}
	}
	a.Table = t
	a.Series = []metrics.Series{noS, ndpS}
	note(a, "NDP wins %d/%d iterations; movement tracks the frontier (offload is not always better — the dynamic-decision motivation)", ndpWins, total)
	if ndpRun.TotalDataMovementBytes < noRun.TotalDataMovementBytes {
		note(a, "total: NDP %.2fx lower (%.1f vs %.1f KB)",
			ratio(noRun.TotalDataMovementBytes, ndpRun.TotalDataMovementBytes),
			float64(ndpRun.TotalDataMovementBytes)/1e3, float64(noRun.TotalDataMovementBytes)/1e3)
	} else {
		note(a, "total: NDP %.2fx higher (%.1f vs %.1f KB)",
			ratio(ndpRun.TotalDataMovementBytes, noRun.TotalDataMovementBytes),
			float64(ndpRun.TotalDataMovementBytes)/1e3, float64(noRun.TotalDataMovementBytes)/1e3)
	}
	return a, nil
}

// Fig7a: Connected Components on the twitter7 stand-in, 32 partitions.
func Fig7a(cfg Config) (*Artifact, error) {
	return fig7(cfg, "fig7a", "a", gen.Twitter7,
		func(Config) kernels.Kernel { return kernels.NewConnectedComponents() }, 32)
}

// Fig7b: BFS on the com-LiveJournal stand-in, 16 partitions. (The provided
// paper text omits panel (b)'s caption; this panel covers the remaining
// frontier-driven kernel × graph combination Section IV-D discusses.)
func Fig7b(cfg Config) (*Artifact, error) {
	return fig7(cfg, "fig7b", "b", gen.ComLiveJournal,
		func(Config) kernels.Kernel { return kernels.NewBFS(0) }, 16)
}

// Fig7c: PageRank on the uk-2005 stand-in, 80 partitions.
func Fig7c(cfg Config) (*Artifact, error) {
	return fig7(cfg, "fig7c", "c", gen.UK2005,
		func(c Config) kernels.Kernel {
			return kernels.NewPageRank(c.PageRankIterations, kernels.DefaultDamping)
		}, 80)
}
