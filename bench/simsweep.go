package main

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// The sweep's topology: the paper's 16 memory nodes under 2 hosts.
const (
	sweepMemoryNodes  = 16
	sweepComputeNodes = 2
)

// sweepGraph is one input of the sweep with its assignments.
type sweepGraph struct {
	name    string
	g       *graph.Graph
	specs   []kernelSpec // bfs from a seed-drawn source, cc, pagerank
	assigns []sweepAssign
}

type sweepAssign struct {
	name string
	a    *partition.Assignment
}

// sweepSystem is one row of Table II, or disaggregated-ndp under the
// dynamic policy.
type sweepSystem struct {
	class string
	sys   *core.System
}

// sweepSystemOf builds a system on the sweep's topology.
func sweepSystemOf(arch core.Arch, opts ...core.Option) (*core.System, error) {
	return core.New(arch, append([]core.Option{core.WithMemoryNodes(sweepMemoryNodes), core.WithComputeNodes(sweepComputeNodes)}, opts...)...)
}

func sweepSystems() ([]sweepSystem, error) {
	var out []sweepSystem
	for _, arch := range core.Architectures() {
		sys, err := sweepSystemOf(arch, core.WithPolicy(sim.AlwaysOffload{}))
		if err != nil {
			return nil, err
		}
		out = append(out, sweepSystem{"sim." + arch.String(), sys})
	}
	sys, err := sweepSystemOf(core.DisaggregatedNDP, core.WithPolicy(runtime.Heuristic{}))
	if err != nil {
		return nil, err
	}
	return append(out, sweepSystem{"sim.disaggregated-ndp.heuristic", sys}), nil
}

// sweepFaults is the seeded plan of the faulted cluster job: drops on
// both link classes and one memory-node crash.
func sweepFaults(seed uint64) cluster.FaultPlan {
	return cluster.FaultPlan{
		Seed:      seed,
		Update:    cluster.LinkFaults{Drop: 0.05},
		Writeback: cluster.LinkFaults{Drop: 0.05},
		Crash:     map[int]int{1: 1},
	}
}

func buildSimSweep(cfg config, rec *recorder, refs *refCache) (*env, error) {
	inputs := []struct {
		d           gen.Dataset
		scale       float64
		partitioner []string
	}{
		{gen.ComLiveJournal, 1, []string{"hash", "ldg", "multilevel"}},
		{gen.WikiTalk, 0.5, []string{"hash", "ldg"}},
	}
	e := &env{}
	var graphs []sweepGraph
	for _, in := range inputs {
		if cfg.tiny {
			in.scale /= 16
		}
		g, err := generate(in.d, in.scale, cfg.seed, false, rec)
		if err != nil {
			return nil, err
		}
		src := drawSources(g.NumVertices(), g.OutDegree, cfg.seed, 1)
		if len(src) == 0 {
			return nil, fmt.Errorf("%s has no vertex with out-edges", in.d.Name)
		}
		sg := sweepGraph{name: in.d.Name, g: g, specs: []kernelSpec{{"bfs", src[0]}, {kind: "cc"}, {kind: "pagerank"}}}
		for _, name := range in.partitioner {
			p, err := partition.ByName(name, cfg.seed)
			if err != nil {
				return nil, err
			}
			sp := rec.begin("partition."+name, 0, 0)
			a, err := p.Partition(g, sweepMemoryNodes)
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("partition %s/%s: %w", in.d.Name, name, err)
			}
			sg.assigns = append(sg.assigns, sweepAssign{name, a})
		}
		graphs = append(graphs, sg)
		e.info = append(e.info, fmt.Sprintf("%s %d vertices %d edges, %d assignments", in.d.Name, g.NumVertices(), g.NumEdges(), len(sg.assigns)))
	}
	if refs.kernel == nil {
		for _, sg := range graphs {
			r, dt, err := computeRefs(sg.g, sg.specs)
			if err != nil {
				return nil, err
			}
			refs.kernel = append(refs.kernel, r...)
			e.verifyS += dt
		}
	}

	systems, err := sweepSystems()
	if err != nil {
		return nil, err
	}
	faulted, err := sweepSystemOf(core.DisaggregatedNDP, core.WithFaultPlan(sweepFaults(cfg.seed)))
	if err != nil {
		return nil, err
	}
	for gi, sg := range graphs {
		sg := sg
		ref := func(ki int) *reference { return refs.kernel[gi*len(sg.specs)+ki] }
		for _, as := range sg.assigns {
			for _, ss := range systems {
				for ki, s := range sg.specs {
					as, eng, s := as, ss.sys.Engine(), s
					e.jobs = append(e.jobs, &job{
						class: ss.class, label: fmt.Sprintf("%s %s/%s %s", s, sg.name, as.name, ss.class), ref: ref(ki),
						run: func(ctx context.Context) (outcome, error) {
							res, err := eng.Run(ctx, sg.g, s.kernel(), core.RunConfig{Assignment: as.a})
							if err != nil {
								return outcome{}, err
							}
							return outcome{
								values: res.Values, exact: []int64{res.TotalDataMovementBytes, res.TotalSyncEvents},
								moved: res.TotalDataMovementBytes, counted: true,
								counts: map[string]int64{"moved": res.TotalDataMovementBytes},
							}, nil
						},
					})
				}
			}
		}
		// The actor cluster on the ldg assignment: two clean jobs and one
		// under the fault plan, whose answer must not change.
		ldg := sg.assigns[1].a
		ndp := systems[3].sys
		clusterJob := func(class string, sys *core.System, ki int) *job {
			eng, s := sys.ConcurrentEngine(), sg.specs[ki]
			return &job{
				class: class, label: fmt.Sprintf("%s %s/ldg %s", s, sg.name, class), ref: ref(ki),
				run: func(ctx context.Context) (outcome, error) {
					res, err := eng.Run(ctx, sg.g, s.kernel(), core.RunConfig{Assignment: ldg})
					if err != nil {
						return outcome{}, err
					}
					t, f := res.Traffic, res.Faults
					return outcome{
						values: res.Values,
						exact:  []int64{t.MemToSwitch, t.SwitchToCompute, t.Writeback, f.Drops, f.Retries, f.Crashes},
						counts: map[string]int64{"traffic": t.Total(), "retries": f.Retries},
					}, nil
				},
			}
		}
		e.jobs = append(e.jobs, clusterJob("cluster", ndp, 0), clusterJob("cluster", ndp, 2), clusterJob("cluster.faulted", faulted, 2))
	}
	e.layers = func(rec *recorder, m readings, _ measured) error {
		return simLayers(graphs[0], systems, rec, m)
	}
	return e, nil
}

// simLayers turns the traced rounds' spans into the partition, sim,
// runtime and cluster rows, and probes what no job of the round shows:
// the parallel speed-up, the actor cluster against the model on one
// job, and System.Compare. lj is the com-livejournal input.
func simLayers(lj sweepGraph, systems []sweepSystem, rec *recorder, m readings) error {
	ctx := context.Background()
	for _, as := range lj.assigns {
		m.set("partition."+as.name+".cut_frac", partition.Evaluate(lj.g, as.a).CutFraction, "ratio")
	}
	m.set("partition.hash.partition_ms", median(rec.ms("partition.hash")), "ms")
	m.set("partition.ldg.partition_ms", median(rec.ms("partition.ldg")), "ms")
	m.set("partition.multilevel.partition_s", median(rec.ms("partition.multilevel"))/1e3, "s")
	m.set("gen.generate_s", median(rec.ms("gen.Generate"))/1e3, "s")

	var simMS float64
	var simNominal, simMallocs, simJobs int64
	for _, ss := range systems {
		ms := rec.ms(ss.class)
		for _, d := range ms {
			simMS += d
		}
		simNominal += rec.sum(ss.class, "nominal")
		simMallocs += rec.sum(ss.class, "mallocs")
		simJobs += int64(len(ms))
		if ss.class == "sim.disaggregated-ndp.heuristic" {
			continue
		}
		m.set(ss.class+".job_ms", median(ms), "ms")
		m.set(ss.class+".moved_bytes_per_edge", float64(rec.sum(ss.class, "moved"))/float64(rec.sum(ss.class, "nominal")), "B")
	}
	m.set("sim.host_ns_per_edge", simMS*1e6/float64(simNominal), "ns")
	m.set("sim.allocs_per_job", float64(simMallocs)/float64(simJobs), "count")
	m.set("runtime.heuristic_vs_always_moved",
		float64(rec.sum("sim.disaggregated-ndp.heuristic", "moved"))/float64(rec.sum("sim.disaggregated-ndp", "moved")), "ratio")

	m.set("cluster.job_ms", median(rec.ms("cluster")), "ms")
	m.set("cluster.faulted.job_ms", median(rec.ms("cluster.faulted")), "ms")
	m.set("cluster.traffic_bytes_per_edge", float64(rec.sum("cluster", "traffic"))/float64(rec.sum("cluster", "nominal")), "B")
	m.set("cluster.retries", float64(rec.sum("cluster.faulted", "retries"))/tracedRounds, "count")

	// One job three ways: PageRank on com-livejournal under multilevel.
	ml := lj.assigns[len(lj.assigns)-1].a
	pr := lj.specs[2]
	cfg := core.RunConfig{Assignment: ml}
	ndp := systems[3].sys
	oneWorker, err := sweepSystemOf(core.DisaggregatedNDP, core.WithPolicy(sim.AlwaysOffload{}), core.WithWorkers(1))
	if err != nil {
		return err
	}
	const probes = 5
	var modelled int64
	for i := 0; i < probes; i++ {
		sp := rec.begin("sim.pagerank.workers=1", 0, 0)
		_, err := oneWorker.Engine().Run(ctx, lj.g, pr.kernel(), cfg)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("sim.pagerank.workers=default", 0, 0)
		res, err := ndp.Engine().Run(ctx, lj.g, pr.kernel(), cfg)
		rec.end(sp)
		if err != nil {
			return err
		}
		modelled = res.TotalDataMovementBytes
		sp = rec.begin("core.CompareWithAssignment", 0, 0)
		_, err = ndp.CompareWithAssignment(ctx, lj.g, pr.kernel(), ml)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	res, err := ndp.ConcurrentEngine().Run(ctx, lj.g, pr.kernel(), cfg)
	if err != nil {
		return err
	}
	m.set("sim.parallel_speedup", median(rec.ms("sim.pagerank.workers=1"))/median(rec.ms("sim.pagerank.workers=default")), "ratio")
	m.set("cluster.vs_sim_traffic_ratio", float64(res.Traffic.Total())/float64(modelled), "ratio")
	m.set("core.compare_ms", median(rec.ms("core.CompareWithAssignment")), "ms")
	return nil
}
