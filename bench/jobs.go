package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// pageRankIterations is the PageRank budget of every workload.
const pageRankIterations = 10

// kernelSpec names one kernel run: the kernel and, for the traversals,
// its source.
type kernelSpec struct {
	kind   string // bfs | cc | sssp | pagerank
	source graph.VertexID
}

func (s kernelSpec) String() string {
	if s.kind == "bfs" || s.kind == "sssp" {
		return fmt.Sprintf("%s(%d)", s.kind, s.source)
	}
	return s.kind
}

// kernel builds a fresh instance: kernels may carry per-run state.
func (s kernelSpec) kernel() kernels.Kernel {
	switch s.kind {
	case "bfs":
		return kernels.NewBFS(s.source)
	case "sssp":
		return kernels.NewSSSP(s.source)
	case "cc":
		return kernels.NewConnectedComponents()
	default:
		return kernels.NewPageRank(pageRankIterations, kernels.DefaultDamping)
	}
}

// kernelList is the 17-job list of the kernel and out-of-core workloads:
// 12 BFS and 1 SSSP from seed-drawn sources that have out-edges, 3 CC
// and 1 PageRank. The mix gives each kernel class about a quarter of a
// round's time.
func kernelList(n int, outDegree func(graph.VertexID) int64, seed uint64) ([]kernelSpec, error) {
	sources := drawSources(n, outDegree, seed, 13)
	if len(sources) < 13 {
		return nil, fmt.Errorf("graph has only %d vertices with out-edges to draw sources from", len(sources))
	}
	var list []kernelSpec
	for _, s := range sources[:len(sources)-1] {
		list = append(list, kernelSpec{"bfs", s})
	}
	list = append(list, kernelSpec{kind: "cc"}, kernelSpec{kind: "cc"}, kernelSpec{kind: "cc"},
		kernelSpec{"sssp", sources[len(sources)-1]}, kernelSpec{kind: "pagerank"})
	return list, nil
}

// drawSources draws up to count distinct vertices with out-edges.
func drawSources(n int, outDegree func(graph.VertexID) int64, seed uint64, count int) []graph.VertexID {
	rng := rand.New(rand.NewSource(int64(seed)))
	seen := make(map[graph.VertexID]bool)
	var out []graph.VertexID
	for tries := 0; len(out) < count && tries < 64*count+n; tries++ {
		v := graph.VertexID(rng.Intn(n))
		if !seen[v] && outDegree(v) > 0 {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// computeRefs runs the push-only serial reference once per distinct
// spec and returns one reference per list entry, with the time it took.
func computeRefs(g *graph.Graph, list []kernelSpec) ([]*reference, float64, error) {
	t0 := time.Now()
	byspec := make(map[kernelSpec]*reference)
	refs := make([]*reference, len(list))
	for i, s := range list {
		if r, ok := byspec[s]; ok {
			refs[i] = r
			continue
		}
		res, err := kernels.RunSerialWith(g, s.kernel(), kernels.Options{Direction: kernels.DirectionPush})
		if err != nil {
			return nil, 0, fmt.Errorf("reference %v: %w", s, err)
		}
		r := &reference{digest: digestValues(res.Values)}
		for _, e := range res.ActiveEdges {
			r.nominal += e
		}
		if s.kind == "pagerank" {
			r.rank = res.Values
		}
		byspec[s], refs[i] = r, r
	}
	return refs, time.Since(t0).Seconds(), nil
}
