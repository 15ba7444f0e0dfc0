package partition

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Community(2000, 16, 8, 0.9, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allPartitioners() []Partitioner {
	return []Partitioner{Hash{}, Range{}, Chunk{}, Multilevel{Seed: 1}, LDG{}}
}

func TestAllPartitionersProduceValidAssignments(t *testing.T) {
	g := testGraph(t)
	for _, p := range allPartitioners() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, k := range []int{1, 2, 3, 8, 16, 64} {
				a, err := p.Partition(g, k)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if err := a.Validate(g); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				// Every part must be non-empty for reasonable k.
				if k <= 16 {
					for i, s := range a.Sizes() {
						if s == 0 {
							t.Errorf("k=%d: part %d empty", k, i)
						}
					}
				}
			}
		})
	}
}

// TestDegreePartitionersRunOnAVertexView holds the partitioners that
// read degrees alone to the same assignment on an offsets-only view (an
// out-of-core container's vertex side) as on the full graph.
func TestDegreePartitionersRunOnAVertexView(t *testing.T) {
	g := testGraph(t)
	view, err := graph.NewVertexView(g.Offsets())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{Hash{}, Range{}, Chunk{}} {
		want, err := p.Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Partition(view, 8)
		if err != nil {
			t.Fatalf("%s on a view: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the view's assignment differs from the graph's", p.Name())
		}
	}
}

func TestPartitionersRejectBadK(t *testing.T) {
	g := testGraph(t)
	for _, p := range allPartitioners() {
		if _, err := p.Partition(g, 0); err == nil {
			t.Errorf("%s accepted k=0", p.Name())
		}
		if _, err := p.Partition(g, -3); err == nil {
			t.Errorf("%s accepted k<0", p.Name())
		}
		if _, err := p.Partition(g, g.NumVertices()+1); err == nil {
			t.Errorf("%s accepted k > V", p.Name())
		}
	}
}

// TestByName holds CheckName to ByName: the same names accepted, and the
// same error for one that is not.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name, 1)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
		if err := CheckName(name); err != nil {
			t.Errorf("CheckName(%q): %v", name, err)
		}
	}
	_, err := ByName("metis", 1)
	if err == nil {
		t.Fatal("ByName accepted an unknown partitioner")
	}
	if cerr := CheckName("metis"); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("CheckName(\"metis\") = %v, ByName's error %q", cerr, err)
	}
}

// TestByNameValueIsThePlanIdentity holds what lets a plan cache key on a
// constructed partitioner's value: every value ByName returns is of a
// comparable type (so comparing two never panics), and two values that
// compare equal assign the same parts (so a plan computed for one serves
// the other). The strategies that ignore their seed construct one value
// for every seed; multilevel carries its seed and constructs distinct
// ones. A new strategy must be named in seedless or seeded here.
func TestByNameValueIsThePlanIdentity(t *testing.T) {
	seedless := map[string]bool{"chunk": true, "hash": true, "ldg": true, "range": true, "multilevel": false}
	g := testGraph(t)
	for _, name := range Names() {
		p1, err1 := ByName(name, 1)
		p2, err2 := ByName(name, 2)
		if err1 != nil || err2 != nil {
			t.Fatalf("ByName(%q): %v, %v", name, err1, err2)
		}
		if typ := reflect.TypeOf(p1); !typ.Comparable() {
			t.Errorf("%s: %v is not comparable; a plan key holding it would panic", name, typ)
			continue
		}
		want, known := seedless[name]
		if !known {
			t.Errorf("%s: say whether its value depends on the seed", name)
		}
		if equal := p1 == p2; equal != want {
			t.Errorf("%s: ByName(1) == ByName(2) is %v, want %v", name, equal, want)
		}
		if p1 != p2 {
			continue
		}
		a1, err1 := p1.Partition(g, 8)
		a2, err2 := p2.Partition(g, 8)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", name, err1, err2)
		}
		if !slices.Equal(a1.Parts, a2.Parts) {
			t.Errorf("%s: equal values under seeds 1 and 2 assign different parts", name)
		}
	}
}

func TestK1IsTrivial(t *testing.T) {
	g := testGraph(t)
	for _, p := range allPartitioners() {
		a, err := p.Partition(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		q := Evaluate(g, a)
		if q.EdgeCut != 0 || q.Mirrors != 0 {
			t.Errorf("%s: k=1 has cut=%d mirrors=%d, want 0/0", p.Name(), q.EdgeCut, q.Mirrors)
		}
		if q.ReplicationFactor != 1 {
			t.Errorf("%s: k=1 replication = %f, want 1", p.Name(), q.ReplicationFactor)
		}
	}
}

func TestRangeIsContiguous(t *testing.T) {
	g := testGraph(t)
	a, err := Range{}.Partition(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if a.Parts[v] < a.Parts[v-1] {
			t.Fatalf("range partition not monotone at %d", v)
		}
	}
	sizes := a.Sizes()
	for i := 1; i < len(sizes); i++ {
		if diff := sizes[i] - sizes[0]; diff > 1 || diff < -1 {
			t.Errorf("range sizes unbalanced: %v", sizes)
		}
	}
}

func TestChunkBalancesEdges(t *testing.T) {
	// A heavily skewed graph: Range balances vertices but not edges;
	// Chunk must balance edges.
	g, err := gen.RMATGraph500(12, 16, gen.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	ra, err := Range{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Chunk{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	rq, cq := Evaluate(g, ra), Evaluate(g, ca)
	if cq.EdgeImbalance > rq.EdgeImbalance+0.01 {
		t.Errorf("chunk edge imbalance %.2f worse than range %.2f", cq.EdgeImbalance, rq.EdgeImbalance)
	}
	if cq.EdgeImbalance > 1.5 {
		t.Errorf("chunk edge imbalance %.2f, want close to 1", cq.EdgeImbalance)
	}
}

func TestMultilevelBeatsHashOnCommunityGraph(t *testing.T) {
	g := testGraph(t)
	const k = 16
	ha, err := Hash{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := Multilevel{Seed: 1}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	hq, mq := Evaluate(g, ha), Evaluate(g, ma)
	if mq.EdgeCut >= hq.EdgeCut {
		t.Errorf("multilevel cut %d not below hash cut %d", mq.EdgeCut, hq.EdgeCut)
	}
	// On a 90%-internal community graph, the multilevel cut should be a
	// small fraction of the hash cut (hash cuts ~ (k-1)/k of all edges).
	if float64(mq.EdgeCut) > 0.5*float64(hq.EdgeCut) {
		t.Errorf("multilevel cut %d vs hash %d: expected at least 2x reduction", mq.EdgeCut, hq.EdgeCut)
	}
	if mq.VertexImbalance > 1.3 {
		t.Errorf("multilevel vertex imbalance %.2f too high", mq.VertexImbalance)
	}
}

func TestMultilevelHandlesDisconnectedGraph(t *testing.T) {
	// Two cliques with no connection.
	b := graph.NewBuilder(20)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j), 1)
				b.AddEdge(graph.VertexID(10+i), graph.VertexID(10+j), 1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Multilevel{Seed: 5}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, a)
	if q.EdgeCut != 0 {
		t.Errorf("disconnected cliques cut = %d, want 0", q.EdgeCut)
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	g := testGraph(t)
	a1, err := Multilevel{Seed: 9}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Multilevel{Seed: 9}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.Parts {
		if a1.Parts[v] != a2.Parts[v] {
			t.Fatalf("same seed diverged at vertex %d", v)
		}
	}
}

func TestMultilevelTinyGraphs(t *testing.T) {
	// k == n: every vertex its own part must be representable.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Multilevel{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i, s := range a.Sizes() {
		if s != 1 {
			t.Errorf("part %d size %d, want 1", i, s)
		}
	}
}

// TestMultilevelAssignmentsPinned holds the multilevel partitioner to the
// assignments recorded at commit f04b391, as an FNV-64a of Parts: the
// inputs sim-sweep (com-livejournal 1, Seed 42, k 16) and serve-mix
// (Seed 43, k 8 on com-livejournal 1 and wiki-talk 0.5) partition,
// wiki-talk and a community graph over seeds and part counts, and the
// zero Multilevel{} core.New installs, at its 8 memory nodes. Any change
// to a comparator, a tie-break or a visit order moves at least one.
func TestMultilevelAssignmentsPinned(t *testing.T) {
	lj, err := gen.ComLiveJournal.Generate(1, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := gen.WikiTalk.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := gen.Community(8000, 32, 10, 0.9, gen.Config{Seed: 7, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"com-livejournal": lj, "wiki-talk": wiki, "community": comm}
	for _, c := range []struct {
		graph string
		m     Multilevel
		k     int
		want  uint64
	}{
		{"com-livejournal", Multilevel{Seed: 42}, 16, 0x50cfa2ca9441c8b5},
		{"com-livejournal", Multilevel{Seed: 43}, 8, 0x58c7c14f9da300a7},
		{"com-livejournal", Multilevel{}, 8, 0x4153f6b83cf4bba5},
		{"wiki-talk", Multilevel{Seed: 0}, 8, 0xd8c7e2a3616779a0},
		{"wiki-talk", Multilevel{Seed: 0}, 16, 0x329dfd406146c07e},
		{"wiki-talk", Multilevel{Seed: 43}, 8, 0x24435d3ae604c385},
		{"wiki-talk", Multilevel{Seed: 43}, 16, 0xf13114d578adb518},
		{"community", Multilevel{Seed: 0}, 8, 0x36590af83e3f59a1},
		{"community", Multilevel{Seed: 0}, 16, 0x05143da1f552a4ae},
		{"community", Multilevel{Seed: 43}, 8, 0xb05fcfe0c4ba0a25},
		{"community", Multilevel{Seed: 43}, 16, 0x6df06cf8313bb453},
	} {
		a, err := c.m.Partition(graphs[c.graph], c.k)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var word [4]byte
		for _, p := range a.Parts {
			binary.LittleEndian.PutUint32(word[:], uint32(p))
			h.Write(word[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s %+v k=%d: Parts hash %#x, pinned %#x", c.graph, c.m, c.k, got, c.want)
		}
	}
}

// TestRefineRevisitsBoundBlockedVertices holds refine's stale set to its
// exactness condition: a vertex whose positive-gain move maxW refuses must
// be looked at again after any move, because a move elsewhere can free
// room in its target part without touching one of its neighbours. In both
// levels vertex 0 (v, weight 1, in part 0) gains 2 by joining part 1,
// which is full. Heavy anchors (weight 100, one per part) hold every part
// near maxW and never move: the underfill check skips them.
//
//   - same pass: w (1), not v's neighbour, leaves part 1 for part 2 later
//     in the pass that refuses v; v moves in the next pass.
//   - next pass: x (2) moves first, which gives w (1) a positive gain; w
//     leaves part 1 in the next pass, after v is refused again; v moves
//     in the pass after that.
//
// A stale set that dropped v after the first refusal would leave v in
// part 0 in both.
func TestRefineRevisitsBoundBlockedVertices(t *testing.T) {
	for _, c := range []struct {
		name  string
		vwt   []int64
		parts []int32
		edges [][3]int64 // u, v, weight
		tol   float64
		want  []int32
	}{
		{
			// v w a b c; maxW 101: part 1 + v is 102 until w leaves.
			name: "same pass", tol: 1.01,
			vwt:   []int64{1, 1, 100, 100, 100},
			parts: []int32{0, 1, 0, 1, 2},
			edges: [][3]int64{{0, 3, 3}, {0, 2, 1}, {1, 4, 3}, {1, 3, 1}},
			want:  []int32{1, 2, 0, 1, 2},
		},
		{
			// v w x a b c d; maxW 102: part 1 + v is 104, then 103 after
			// x leaves, 101 after w leaves.
			name: "next pass", tol: 1.015,
			vwt:   []int64{1, 2, 1, 100, 100, 100, 100},
			parts: []int32{0, 1, 1, 0, 1, 2, 3},
			edges: [][3]int64{{0, 4, 3}, {0, 3, 1}, {1, 6, 4}, {1, 2, 3}, {1, 4, 1}, {2, 5, 5}},
			want:  []int32{1, 3, 2, 0, 1, 2, 3},
		},
	} {
		lv := handLevel(c.vwt, c.edges)
		k := 1 + int(slices.Max(c.parts))
		got, ref := slices.Clone(c.parts), slices.Clone(c.parts)
		refine(lv, got, k, 8, c.tol)
		refRefine(lv, ref, k, 8, c.tol)
		if !slices.Equal(got, c.want) || !slices.Equal(ref, c.want) {
			t.Errorf("%s: refine %v, reference %v, want %v", c.name, got, ref, c.want)
		}
	}
}

// handLevel builds a symmetric level from vertex weights and undirected
// weighted edges, each neighbour list in ascending id order.
func handLevel(vwt []int64, edges [][3]int64) *level {
	n := len(vwt)
	nbrs := make([][][2]int64, n)
	for _, e := range edges {
		nbrs[e[0]] = append(nbrs[e[0]], [2]int64{e[1], e[2]})
		nbrs[e[1]] = append(nbrs[e[1]], [2]int64{e[0], e[2]})
	}
	lv := &level{n: n, xadj: make([]int64, n+1), vwt: vwt}
	for u, list := range nbrs {
		slices.SortFunc(list, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		for _, e := range list {
			lv.adj = append(lv.adj, int32(e[0]))
			lv.ewt = append(lv.ewt, e[1])
		}
		lv.xadj[u+1] = int64(len(lv.adj))
	}
	return lv
}

func TestEvaluateMirrorSemantics(t *testing.T) {
	// 0 -> 1, 2 -> 1 with parts {0:A, 1:A, 2:B}: part B stores edge into 1
	// but does not own 1, so 1 has exactly one mirror.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := &Assignment{Parts: []int32{0, 0, 1}, K: 2}
	q := Evaluate(g, a)
	if q.Mirrors != 1 {
		t.Errorf("mirrors = %d, want 1", q.Mirrors)
	}
	if q.EdgeCut != 1 {
		t.Errorf("cut = %d, want 1", q.EdgeCut)
	}
	wantRepl := 1 + 1.0/3.0
	if diff := q.ReplicationFactor - wantRepl; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("replication = %f, want %f", q.ReplicationFactor, wantRepl)
	}
}

func TestAssignmentValidateCatchesErrors(t *testing.T) {
	g := testGraph(t)
	bad := &Assignment{Parts: make([]int32, 5), K: 2}
	if err := bad.Validate(g); err == nil {
		t.Error("accepted wrong-length assignment")
	}
	parts := make([]int32, g.NumVertices())
	parts[0] = 99
	if err := (&Assignment{Parts: parts, K: 2}).Validate(g); err == nil {
		t.Error("accepted out-of-range part")
	}
	if err := (&Assignment{Parts: parts, K: 0}).Validate(g); err == nil {
		t.Error("accepted K=0")
	}
}

func TestEdgeSizesSumToTotal(t *testing.T) {
	g := testGraph(t)
	for _, p := range allPartitioners() {
		a, err := p.Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, s := range a.EdgeSizes(g) {
			sum += s
		}
		if sum != g.NumEdges() {
			t.Errorf("%s: edge sizes sum %d != %d", p.Name(), sum, g.NumEdges())
		}
	}
}

func TestPartitionCoversAllVerticesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(300, 1200, gen.Config{Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range allPartitioners() {
			for _, k := range []int{2, 5, 9} {
				a, err := p.Partition(g, k)
				if err != nil || a.Validate(g) != nil {
					return false
				}
				var sum int64
				for _, s := range a.Sizes() {
					sum += s
				}
				if sum != int64(g.NumVertices()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestQualityStringNonEmpty(t *testing.T) {
	g := testGraph(t)
	a, err := Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := Evaluate(g, a).String(); s == "" {
		t.Error("empty quality string")
	}
}

// BenchmarkMultilevelPartition times the partitioner on a community graph,
// on the two stand-ins sim-sweep partitions (graph seed 42, Seed 42, k 16)
// and on serve-mix's two hot plans (graph seed 42, Seed 43, k 8), whose
// coarsest level is rebalanced from far out of bounds.
func BenchmarkMultilevelPartition(b *testing.B) {
	lj := func() (*graph.Graph, error) {
		return gen.ComLiveJournal.Generate(1, gen.Config{Seed: 42, DropSelfLoops: true})
	}
	wiki := func() (*graph.Graph, error) {
		return gen.WikiTalk.Generate(0.5, gen.Config{Seed: 42, DropSelfLoops: true})
	}
	for _, c := range []struct {
		name string
		make func() (*graph.Graph, error)
		m    Multilevel
		k    int
	}{
		{"community", func() (*graph.Graph, error) { return gen.Community(20000, 64, 10, 0.9, gen.Config{Seed: 7}) }, Multilevel{Seed: 1}, 32},
		{"com-livejournal-1", lj, Multilevel{Seed: 42}, 16},
		{"wiki-talk-0.5", wiki, Multilevel{Seed: 42}, 16},
		{"serve-mix/com-livejournal-1", lj, Multilevel{Seed: 43}, 8},
		{"serve-mix/wiki-talk-0.5", wiki, Multilevel{Seed: 43}, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.make()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.m.Partition(g, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashPartition(b *testing.B) {
	g, err := gen.Community(20000, 64, 10, 0.9, gen.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Hash{}).Partition(g, 32); err != nil {
			b.Fatal(err)
		}
	}
}
