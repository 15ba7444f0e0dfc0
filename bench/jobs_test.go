package main

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

func testGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ComLiveJournal.Generate(0.05, gen.Config{Seed: seed, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKernelListFollowsSeed(t *testing.T) {
	g := testGraph(t, 1)
	a, err := kernelList(g.NumVertices(), g.OutDegree, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := kernelList(g.NumVertices(), g.OutDegree, 7)
	c, _ := kernelList(g.NumVertices(), g.OutDegree, 8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different lists:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 drew the same sources: %v", a)
	}
	count := map[string]int{}
	seen := map[graph.VertexID]bool{}
	for _, s := range a {
		count[s.kind]++
		if s.kind == "bfs" || s.kind == "sssp" {
			if g.OutDegree(s.source) == 0 {
				t.Errorf("%v starts from a vertex without out-edges", s)
			}
			if seen[s.source] {
				t.Errorf("source %d drawn twice", s.source)
			}
			seen[s.source] = true
		}
	}
	if want := map[string]int{"bfs": 12, "cc": 3, "sssp": 1, "pagerank": 1}; !reflect.DeepEqual(count, want) {
		t.Errorf("job mix %v, want %v", count, want)
	}
}

// fakeHot is a hot set without a service behind it: the stream only
// looks at engine and partitioner.
func fakeHot() []served {
	var hot []served
	for _, spec := range append(hotSpecs("lj", 43), hotSpecs("wiki", 43)...) {
		hot = append(hot, served{spec: spec})
	}
	return hot
}

func TestStreamFollowsSeed(t *testing.T) {
	type draw struct {
		spec serve.JobSpec
		miss bool
	}
	draws := func(seed uint64) []draw {
		s := newStream(fakeHot(), seed)
		out := make([]draw, 2000)
		for i := range out {
			sv, miss := s.job(i)
			out[i] = draw{sv.spec, miss}
		}
		return out
	}
	a, b, c := draws(7), draws(7), draws(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same stream")
	}

	s := newStream(fakeHot(), 7)
	if len(s.hot) != 58 || len(s.distinct) != 24 {
		t.Fatalf("hot set %d, distinct templates %d; want 58 and 24", len(s.hot), len(s.distinct))
	}
	seeds := map[uint64]bool{}
	for block := 0; block < len(a)/serveBlock; block++ {
		misses := 0
		for _, d := range a[block*serveBlock : (block+1)*serveBlock] {
			if !d.miss {
				continue
			}
			misses++
			if d.spec.Engine != serve.EngineSim || d.spec.Partitioner != "ldg" {
				t.Fatalf("distinct job is %s/%s, want sim/ldg", d.spec.Engine, d.spec.Partitioner)
			}
			if seeds[d.spec.Seed] || d.spec.Seed == 43 {
				t.Fatalf("distinct job repeats seed %d", d.spec.Seed)
			}
			seeds[d.spec.Seed] = true
		}
		if misses != serveMissesPerBlock {
			t.Fatalf("block %d has %d misses, want %d", block, misses, serveMissesPerBlock)
		}
	}
	// One cycle of hits visits every hot spec once.
	visited := map[serve.JobSpec]int{}
	for i, hits := 0, 0; hits < len(s.hot); i++ {
		if sv, miss := s.job(i); !miss {
			sv.spec.Aggregation = nil
			visited[sv.spec]++
			hits++
		}
	}
	if len(visited) != len(s.hot) {
		t.Errorf("a cycle of hits visited %d of %d hot specs", len(visited), len(s.hot))
	}
}
