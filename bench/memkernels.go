package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// memKernelsScale sizes the com-livejournal stand-in of mem-kernels and
// the two out-of-core workloads.
const memKernelsScale = 4

// tinyScale is the smoke test's scale for every stand-in.
const tinyScale = 0.05

// kernelKinds are the kernel classes of the 17-job list.
var kernelKinds = []string{"bfs", "cc", "sssp", "pagerank"}

// generate builds a dataset stand-in for the seed under a set-up span.
func generate(d gen.Dataset, scale float64, seed uint64, weighted bool, rec *recorder) (*graph.Graph, error) {
	sp := rec.begin("gen.Generate", 0, 0)
	g, err := d.Generate(scale, gen.Config{Seed: seed, Weighted: weighted, DropSelfLoops: true})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", d.Name, err)
	}
	return g, nil
}

// kernelCounts lifts the engine's own telemetry onto the job's span.
func kernelCounts(res *kernels.Result) map[string]int64 {
	return map[string]int64{
		"inspected":       res.EdgesInspected,
		"iterations":      int64(res.Iterations),
		"pull_iterations": int64(res.PullIterations),
	}
}

// kernelInputs is what mem-kernels and the two out-of-core workloads
// share: the weighted com-livejournal stand-in, the 17-job list drawn
// on it, and (first set-up of a run only) the references.
func kernelInputs(cfg config, rec *recorder, refs *refCache) (*graph.Graph, []kernelSpec, *env, error) {
	scale := float64(memKernelsScale)
	if cfg.tiny {
		scale = tinyScale
	}
	g, err := generate(gen.ComLiveJournal, scale, cfg.seed, true, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	list, err := kernelList(g.NumVertices(), g.OutDegree, cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	e := &env{}
	if refs.kernel == nil {
		if refs.kernel, e.verifyS, err = computeRefs(g, list); err != nil {
			return nil, nil, nil, err
		}
	}
	return g, list, e, nil
}

func buildMemKernels(cfg config, rec *recorder, refs *refCache) (*env, error) {
	g, list, e, err := kernelInputs(cfg, rec, refs)
	if err != nil {
		return nil, err
	}
	sp := rec.begin("graph.Transpose", 0, 0)
	g.Transpose() // cached on the graph; every pull iteration reads it
	rec.end(sp)
	e.info = append(e.info, fmt.Sprintf("graph %d vertices %d edges", g.NumVertices(), g.NumEdges()))
	serial := core.SerialEngine()
	for i, s := range list {
		s, ref := s, refs.kernel[i]
		// What ndpserve engine=serial runs.
		e.jobs = append(e.jobs, &job{
			class: "kernels.serial." + s.kind, label: s.String() + " core.SerialEngine", ref: ref,
			run: func(ctx context.Context) (outcome, error) {
				res, err := serial.Run(ctx, g, s.kernel(), core.RunConfig{})
				if err != nil {
					return outcome{}, err
				}
				return outcome{values: res.Values}, nil
			},
		})
	}
	for i, s := range list {
		s, ref := s, refs.kernel[i]
		// The staged machine, what ndprun -arch serial runs.
		e.jobs = append(e.jobs, &job{
			class: "kernels.staged." + s.kind, label: s.String() + " kernels.Run", ref: ref,
			run: func(context.Context) (outcome, error) {
				res, err := kernels.Run(g, s.kernel(), kernels.Options{})
				if err != nil {
					return outcome{}, err
				}
				return outcome{values: res.Values, counts: kernelCounts(res)}, nil
			},
		})
	}
	e.layers = func(rec *recorder, m readings, _ measured) error {
		return memKernelLayers(g, list, refs.kernel, rec, m)
	}
	return e, nil
}

// memKernelLayers turns the traced rounds' spans into the kernels rows
// and probes the forced-push BFS, the loop store.Run mirrors.
func memKernelLayers(g *graph.Graph, list []kernelSpec, refs []*reference, rec *recorder, m readings) error {
	for i, s := range list {
		if s.kind != "bfs" {
			continue
		}
		sp := rec.begin("kernels.serial.bfs.push", 0, 0)
		res, err := kernels.RunSerialWith(g, s.kernel(), kernels.Options{Direction: kernels.DirectionPush})
		rec.end(sp)
		if err != nil {
			return err
		}
		if digestValues(res.Values) != refs[i].digest {
			return fmt.Errorf("forced-push %v differs from the reference", s)
		}
	}
	m.set("kernels.serial.bfs.push_job_ms", median(rec.ms("kernels.serial.bfs.push")), "ms")
	var inspected, nominal, iters, pulls, mallocs, bytes, jobs int64
	for _, kind := range kernelKinds {
		for _, path := range []string{"serial", "staged"} {
			name := "kernels." + path + "." + kind
			ms := rec.ms(name)
			m.set(name+".job_ms", median(ms), "ms")
			mallocs += rec.sum(name, "mallocs")
			bytes += rec.sum(name, "alloc_bytes")
			jobs += int64(len(ms))
		}
		name := "kernels.staged." + kind
		inspected += rec.sum(name, "inspected")
		nominal += rec.sum(name, "nominal")
		iters += rec.sum(name, "iterations")
		pulls += rec.sum(name, "pull_iterations")
	}
	m.set("kernels.inspected_per_nominal", float64(inspected)/float64(nominal), "ratio")
	m.set("kernels.pull_iter_frac", float64(pulls)/float64(iters), "ratio")
	m.set("kernels.allocs_per_job", float64(mallocs)/float64(jobs), "count")
	m.set("kernels.alloc_kb_per_job", float64(bytes)/float64(jobs)/1024, "KiB")
	m.set("gen.generate_s", median(rec.ms("gen.Generate"))/1e3, "s")
	m.set("graph.transpose_s", median(rec.ms("graph.Transpose"))/1e3, "s")
	m.set("graph.csr_bytes_per_edge", csrBytes(g)/float64(g.NumEdges()), "B")
	return nil
}

// csrBytes is the in-memory size of the forward CSR arrays.
func csrBytes(g *graph.Graph) float64 {
	return float64(8*len(g.Offsets()) + 4*len(g.Edges()) + 4*len(g.Weights()))
}
