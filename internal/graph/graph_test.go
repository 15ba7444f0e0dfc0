package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds 0 -> 1 -> 2 -> ... -> n-1.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("chain(%d): %v", n, err)
	}
	return g
}

func TestNewCSRValid(t *testing.T) {
	g, err := NewCSR([]int64{0, 2, 3, 3}, []VertexID{1, 2, 0}, nil)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if g.OutDegree(2) != 0 {
		t.Errorf("OutDegree(2) = %d, want 0", g.OutDegree(2))
	}
}

func TestNewCSRRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		edges   []VertexID
		weights []float32
	}{
		{"empty offsets", nil, nil, nil},
		{"nonzero first offset", []int64{1, 2}, []VertexID{0, 0}, nil},
		{"non-monotone", []int64{0, 2, 1}, []VertexID{0, 1}, nil},
		{"length mismatch", []int64{0, 1}, []VertexID{0, 0}, nil},
		{"edge out of range", []int64{0, 1}, []VertexID{5}, nil},
		{"weights mismatch", []int64{0, 1}, []VertexID{0}, []float32{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCSR(tc.offsets, tc.edges, tc.weights); err == nil {
				t.Error("NewCSR accepted invalid input")
			}
		})
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 7)
	b.AddEdge(0, 1, 9) // duplicate, first weight wins
	b.AddEdge(0, 2, 3)
	b.AddEdge(2, 2, 1) // self loop kept by default
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatalf("BuildWeighted: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3 after dedup", g.NumEdges())
	}
	if w := g.NeighborWeights(0); w[0] != 7 {
		t.Errorf("weight of (0,1) = %v, want 7 (first occurrence)", w[0])
	}
	if !g.HasEdge(2, 2) {
		t.Error("self loop (2,2) missing")
	}
}

func TestBuilderDropSelfLoops(t *testing.T) {
	b := NewBuilder(2).DropSelfLoops()
	b.AddEdge(0, 0, 1)
	b.AddEdge(0, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.HasEdge(0, 0) {
		t.Errorf("self loop not dropped: E=%d", g.NumEdges())
	}
}

func TestBuilderKeepParallelEdges(t *testing.T) {
	b := NewBuilder(2).KeepParallelEdges()
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 with parallel edges kept", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted out-of-range edge")
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(2, 0, 1)
	b.AddEdge(1, 0, 1)
	g1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Errorf("second Build differs: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
}

func TestTransposeSmall(t *testing.T) {
	g := chain(t, 4)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !tr.HasEdge(VertexID(i+1), VertexID(i)) {
			t.Errorf("transpose missing edge (%d,%d)", i+1, i)
		}
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Errorf("transpose edge count %d != %d", tr.NumEdges(), g.NumEdges())
	}
}

func TestTransposeWeighted(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Transpose()
	if w := tr.NeighborWeights(1); len(w) != 1 || w[0] != 5 {
		t.Errorf("transposed weight of (1,0) = %v, want [5]", w)
	}
	if w := tr.NeighborWeights(2); len(w) != 1 || w[0] != 7 {
		t.Errorf("transposed weight of (2,1) = %v, want [7]", w)
	}
}

// randomGraph builds a deterministic pseudo-random graph for property tests.
func randomGraph(seed int64, n, m int) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)), r.Float32())
	}
	g, err := b.BuildWeighted()
	if err != nil {
		panic(err)
	}
	return g
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 50, 300)
		tt := g.Transpose().Transpose()
		if g.NumEdges() != tt.NumEdges() || g.NumVertices() != tt.NumVertices() {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Neighbors(VertexID(v)), tt.Neighbors(VertexID(v))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTransposePreservesEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 200)
		tr := g.Transpose()
		ok := true
		g.ForEachEdge(func(s, d VertexID, w float32) bool {
			if !tr.HasEdge(d, s) {
				ok = false
				return false
			}
			return true
		})
		return ok && tr.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsUnsortedNeighbors(t *testing.T) {
	g := &Graph{offsets: []int64{0, 2}, edges: []VertexID{1, 0}, weights: nil}
	// Out of range dst 1 in 1-vertex graph would trip first; use 2 vertices.
	g = &Graph{offsets: []int64{0, 2, 2}, edges: []VertexID{1, 0}}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unsorted neighbor list")
	}
}

func TestInDegreesMatchesTranspose(t *testing.T) {
	g := randomGraph(42, 30, 150)
	in := g.InDegrees()
	tr := g.Transpose()
	for v := 0; v < g.NumVertices(); v++ {
		if in[v] != tr.OutDegree(VertexID(v)) {
			t.Fatalf("InDegrees[%d] = %d, transpose outdeg = %d", v, in[v], tr.OutDegree(VertexID(v)))
		}
	}
}

func TestForEachEdgeEarlyStop(t *testing.T) {
	g := chain(t, 10)
	count := 0
	g.ForEachEdge(func(s, d VertexID, w float32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d edges, want 3", count)
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3; keep the triangle.
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sg, orig, err := g.InducedSubgraph([]bool{true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumVertices() != 3 || sg.NumEdges() != 3 {
		t.Errorf("subgraph V=%d E=%d, want 3/3", sg.NumVertices(), sg.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[2] != 2 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestInducedSubgraphBadMask(t *testing.T) {
	g := chain(t, 3)
	if _, _, err := g.InducedSubgraph([]bool{true}); err == nil {
		t.Error("accepted wrong-length mask")
	}
}

func TestMaxOutDegree(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, d := g.MaxOutDegree()
	if v != 1 || d != 3 {
		t.Errorf("MaxOutDegree = (%d,%d), want (1,3)", v, d)
	}
}

func TestHasEdge(t *testing.T) {
	g := chain(t, 5)
	if !g.HasEdge(2, 3) {
		t.Error("HasEdge(2,3) = false, want true")
	}
	if g.HasEdge(3, 2) {
		t.Error("HasEdge(3,2) = true, want false")
	}
}

func TestStatsChain(t *testing.T) {
	g := chain(t, 100)
	s := ComputeStats(g)
	if s.NumVertices != 100 || s.NumEdges != 99 {
		t.Errorf("stats V=%d E=%d", s.NumVertices, s.NumEdges)
	}
	if s.MaxOutDeg != 1 || s.ZeroOutDeg != 1 {
		t.Errorf("maxDeg=%d zeros=%d, want 1/1", s.MaxOutDeg, s.ZeroOutDeg)
	}
	if s.GiniOutDeg > 0.05 {
		t.Errorf("gini=%f for near-regular graph, want ~0", s.GiniOutDeg)
	}
}

func TestStatsSkewed(t *testing.T) {
	// Star: vertex 0 points to everyone.
	n := 1000
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, VertexID(i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.GiniOutDeg < 0.9 {
		t.Errorf("gini=%f for star graph, want near 1", s.GiniOutDeg)
	}
	if s.P50OutDeg != 0 || s.MaxOutDeg != int64(n-1) {
		t.Errorf("p50=%d max=%d", s.P50OutDeg, s.MaxOutDeg)
	}
}

func TestStatsEmpty(t *testing.T) {
	g, err := NewCSR([]int64{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.NumVertices != 0 || s.NumEdges != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestDegreeHistogram(t *testing.T) {
	b := NewBuilder(4)
	// degrees: 0:1, 1:2, 2:4, 3:0
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	b.AddEdge(1, 2, 1)
	for _, d := range []VertexID{0, 1, 2, 3} {
		b.AddEdge(2, d, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := DegreeHistogram(g)
	// bucket0: deg 0 and 1 -> vertices 0 and 3; bucket1: deg 2..3 -> vertex 1;
	// bucket2: deg 4..7 -> vertex 2.
	want := []int{2, 1, 1}
	if len(h) != len(want) {
		t.Fatalf("hist = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("hist[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"},
		{5 << 30, "5.0 GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEdgeWeightUnweightedDefaults(t *testing.T) {
	g := chain(t, 3)
	if g.EdgeWeight(0) != 1 {
		t.Errorf("EdgeWeight = %v, want 1 for unweighted", g.EdgeWeight(0))
	}
	if g.NeighborWeights(0) != nil {
		t.Error("NeighborWeights should be nil for unweighted graph")
	}
}

func TestBuilderSortednessProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 120)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(2, 1, 7)
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	und, err := g.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]VertexID{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
		if !und.HasEdge(e[0], e[1]) {
			t.Errorf("symmetrized graph missing (%d,%d)", e[0], e[1])
		}
	}
	if und.NumEdges() != 4 {
		t.Errorf("E = %d, want 4", und.NumEdges())
	}
	if !und.Weighted() {
		t.Error("weights lost")
	}
}

func TestSymmetrizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 180)
		s1, err := g.Symmetrize()
		if err != nil {
			return false
		}
		s2, err := s1.Symmetrize()
		if err != nil {
			return false
		}
		if s1.NumEdges() != s2.NumEdges() {
			return false
		}
		ok := true
		s1.ForEachEdge(func(u, v VertexID, w float32) bool {
			if !s2.HasEdge(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCompressedAdjacencyRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 60, 300)
		for v := 0; v < g.NumVertices(); v++ {
			nb := g.Neighbors(VertexID(v))
			buf := AppendCompressedAdjacency(nil, nb)
			got := make([]VertexID, len(nb))
			consumed, _, err := DecodeCompressedAdjacency(got, []int64{0, int64(len(nb))}, buf, uint64(g.NumVertices()))
			if err != nil || consumed != len(buf) {
				return false
			}
			for i := range nb {
				if got[i] != nb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCompressedAdjacencyTruncated(t *testing.T) {
	buf := AppendCompressedAdjacency(nil, []VertexID{1, 5, 9})
	if _, _, err := DecodeCompressedAdjacency(make([]VertexID, 3), []int64{0, 3}, buf[:1], 10); err == nil {
		t.Error("accepted truncated adjacency")
	}
}

func TestCompressedEdgeBytesClustered(t *testing.T) {
	// Consecutive neighbors compress to ~1 byte each.
	b := NewBuilder(1000)
	for i := 0; i < 999; i++ {
		b.AddEdge(0, VertexID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := CompressedEdgeBytes(g)
	if c >= g.NumEdges()*4 {
		t.Errorf("compressed %d bytes not below raw %d", c, g.NumEdges()*4)
	}
	if c > g.NumEdges()+4 {
		t.Errorf("consecutive ids should compress to ~1 B/edge, got %d for %d edges", c, g.NumEdges())
	}
}
