package kernels

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

const valueTol = 1e-9

func socialGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Community(800, 8, 6, 0.85, gen.Config{Seed: 5, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func valuesClose(a, b []float64, tol float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		d := a[i] - b[i]
		if math.IsNaN(d) || d > tol || d < -tol {
			// Inf == Inf must pass.
			if math.IsInf(a[i], 1) && math.IsInf(b[i], 1) {
				continue
			}
			return i, false
		}
	}
	return -1, true
}

func TestPageRankMatchesClassic(t *testing.T) {
	g := socialGraph(t)
	k := NewPageRank(15, 0.85)
	res, err := RunSerial(g, k)
	if err != nil {
		t.Fatal(err)
	}
	want := PageRankClassic(g, res.Iterations, 0.85)
	if i, ok := valuesClose(res.Values, want, valueTol); !ok {
		t.Errorf("pagerank differs from classic at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
}

func TestPageRankSumsToAtMostOne(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewPageRank(20, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Values {
		if v < 0 {
			t.Fatalf("negative rank %g", v)
		}
		sum += v
	}
	// Dangling mass is dropped, so the sum is <= 1 (equal when every
	// vertex has out-edges).
	if sum > 1+valueTol {
		t.Errorf("rank sum %g > 1", sum)
	}
	if sum < 0.1 {
		t.Errorf("rank sum %g implausibly small", sum)
	}
}

func TestPageRankRunsFixedIterations(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewPageRank(7, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 {
		t.Errorf("iterations = %d, want 7", res.Iterations)
	}
	if len(res.FrontierSizes) != 7 {
		t.Errorf("frontier records = %d, want 7", len(res.FrontierSizes))
	}
	for i, f := range res.FrontierSizes {
		if f != int64(g.NumVertices()) {
			t.Errorf("iteration %d frontier %d, want all %d", i, f, g.NumVertices())
		}
	}
}

func TestCCMatchesUnionFind(t *testing.T) {
	// CC needs the symmetrized view for weakly-connected semantics.
	g, err := socialGraph(t).Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(g, NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	want := WCCUnionFind(g)
	if i, ok := valuesClose(res.Values, want, 0); !ok {
		t.Errorf("cc differs from union-find at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
	if !res.Converged {
		t.Error("cc did not converge")
	}
}

func TestCCDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddUndirected(0, 1, 1)
	b.AddUndirected(1, 2, 1)
	b.AddUndirected(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(g, NewConnectedComponents())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 0, 3, 4, 4}
	if i, ok := valuesClose(res.Values, want, 0); !ok {
		t.Errorf("cc labels differ at %d: got %v", i, res.Values)
	}
}

func TestBFSMatchesClassic(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewBFS(3))
	if err != nil {
		t.Fatal(err)
	}
	want := BFSClassic(g, 3)
	if i, ok := valuesClose(res.Values, want, 0); !ok {
		t.Errorf("bfs differs from classic at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
}

func TestBFSChain(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(g, NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if res.Values[i] != float64(i) {
			t.Errorf("level[%d] = %g, want %d", i, res.Values[i], i)
		}
	}
	// Chain of 5: frontier shrinks to empty after 4 productive iterations.
	if !res.Converged {
		t.Error("bfs on chain did not converge")
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewSSSP(1))
	if err != nil {
		t.Fatal(err)
	}
	want := DijkstraSSSP(g, 1)
	if i, ok := valuesClose(res.Values, want, 1e-6); !ok {
		t.Errorf("sssp differs from dijkstra at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, gen.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSerial(g, NewSSSP(0)); err == nil {
		t.Error("sssp accepted unweighted graph")
	}
}

func TestSSWPMatchesClassic(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewSSWP(2))
	if err != nil {
		t.Fatal(err)
	}
	want := WidestPathClassic(g, 2)
	if i, ok := valuesClose(res.Values, want, 1e-6); !ok {
		t.Errorf("sswp differs from classic at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
}

func TestInDegreeMatchesClassic(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewInDegree())
	if err != nil {
		t.Fatal(err)
	}
	want := InDegreesClassic(g)
	if i, ok := valuesClose(res.Values, want, 0); !ok {
		t.Errorf("indegree differs at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
	if res.Iterations != 1 {
		t.Errorf("indegree iterations = %d, want 1", res.Iterations)
	}
}

func TestReachabilityMatchesClassic(t *testing.T) {
	g := socialGraph(t)
	res, err := RunSerial(g, NewReachability(7))
	if err != nil {
		t.Fatal(err)
	}
	want := ReachabilityClassic(g, 7)
	if i, ok := valuesClose(res.Values, want, 0); !ok {
		t.Errorf("reach differs at vertex %d: %g vs %g", i, res.Values[i], want[i])
	}
}

func TestSourceOutOfRange(t *testing.T) {
	g := socialGraph(t)
	if _, err := RunSerial(g, NewBFS(graph.VertexID(g.NumVertices()+5))); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pagerank", "pr", "cc", "bfs", "sssp", "sswp", "indegree", "reach"} {
		k, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if k.Name() == "" {
			t.Errorf("ByName(%q) returned unnamed kernel", name)
		}
	}
	if _, err := ByName("zork"); err == nil {
		t.Error("ByName accepted unknown kernel")
	} else {
		// The error is self-serve: it quotes the bad name and lists every
		// canonical name (same shape as ndp.ByName).
		msg := err.Error()
		if !strings.Contains(msg, `"zork"`) {
			t.Errorf("error does not quote the unknown name: %q", msg)
		}
		for _, name := range Names() {
			if !strings.Contains(msg, name) {
				t.Errorf("error does not list %q: %q", name, msg)
			}
		}
	}
}

func TestAllKernelsHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range All() {
		if seen[k.Name()] {
			t.Errorf("duplicate kernel name %q", k.Name())
		}
		seen[k.Name()] = true
	}
}

// domainValue maps an arbitrary float64 into the value domain kernels
// actually operate on: finite, non-negative, moderate magnitude (ranks,
// labels, levels, distances, widths are all such values).
func domainValue(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(math.Abs(x), 1e6)
}

func TestAggregateCommutativeAssociativeProperty(t *testing.T) {
	// In-network aggregation is only valid if the declared reduction is
	// commutative and associative; verify for every kernel over domain
	// inputs.
	for _, k := range All() {
		k := k
		reduce := k.Traits().Agg.Reduce
		f := func(a, b, c float64) bool {
			a, b, c = domainValue(a), domainValue(b), domainValue(c)
			// Commutativity.
			if reduce(a, b) != reduce(b, a) {
				return false
			}
			// Associativity: exact for min/max; sum needs tolerance.
			l := reduce(reduce(a, b), c)
			r := reduce(a, reduce(b, c))
			if l == r {
				return true
			}
			diff := math.Abs(l - r)
			scale := math.Max(1, math.Max(math.Abs(l), math.Abs(r)))
			return diff/scale < 1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", k.Name(), err)
		}
	}
}

func TestIdentityIsNeutralProperty(t *testing.T) {
	for _, k := range All() {
		k := k
		id, reduce := k.Identity(), k.Traits().Agg.Reduce
		f := func(a float64) bool {
			a = domainValue(a)
			return reduce(id, a) == a && reduce(a, id) == a
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s identity not neutral: %v", k.Name(), err)
		}
	}
}

func TestAggOpString(t *testing.T) {
	if AggSum.String() != "sum" || AggMin.String() != "min" || AggMax.String() != "max" {
		t.Error("AggOp names wrong")
	}
	if AggOp(42).String() == "" {
		t.Error("unknown AggOp produced empty string")
	}
}

func TestFrontierBasics(t *testing.T) {
	f := NewFrontier(10)
	if f.Count() != 0 {
		t.Errorf("empty frontier count %d", f.Count())
	}
	f.Activate(3)
	f.Activate(3) // idempotent
	f.Activate(7)
	if f.Count() != 2 {
		t.Errorf("count = %d, want 2", f.Count())
	}
	if !f.Contains(3) || f.Contains(4) {
		t.Error("membership wrong")
	}
	var seen []graph.VertexID
	f.ForEach(func(v graph.VertexID) { seen = append(seen, v) })
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 7 {
		t.Errorf("ForEach order = %v", seen)
	}
}

func TestFrontierActivateAll(t *testing.T) {
	f := NewFrontier(5)
	f.ActivateAll()
	if f.Count() != 5 {
		t.Errorf("count = %d, want 5", f.Count())
	}
	if vs := f.Vertices(); len(vs) != 5 || vs[4] != 4 {
		t.Errorf("Vertices = %v", vs)
	}
	if !f.Contains(0) || !f.Contains(4) {
		t.Error("all-active membership wrong")
	}
}

func TestFrontierSizesMonotoneBFS(t *testing.T) {
	// On a connected community graph, BFS frontier grows then shrinks;
	// total visited equals reachable set.
	g := socialGraph(t)
	res, err := RunSerial(g, NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range res.FrontierSizes {
		total += f
	}
	reach := 0
	for _, v := range res.Values {
		if !math.IsInf(v, 1) {
			reach++
		}
	}
	// Each vertex enters the BFS frontier exactly once.
	if total != int64(reach) {
		t.Errorf("sum of frontiers %d != reachable %d", total, reach)
	}
}

func BenchmarkSerialPageRank(b *testing.B) {
	g, err := gen.RMATGraph500(14, 16, gen.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	k := NewPageRank(10, 0.85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(g, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialBFS(b *testing.B) {
	g, err := gen.RMATGraph500(14, 16, gen.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(g, NewBFS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSSSPRejectsNegativeWeights(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, -0.5)
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSerial(g, NewSSSP(0)); err == nil {
		t.Error("accepted negative edge weight")
	}
}

func TestBFSUnreachableStaysInf(t *testing.T) {
	// Two disconnected pairs: BFS from 0 must leave 2,3 at +Inf.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSerial(g, NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Values[2], 1) || !math.IsInf(res.Values[3], 1) {
		t.Errorf("unreachable vertices got levels: %v", res.Values)
	}
}

// TestRegistryNamesMatchKernels pins the single-source property of the
// registry: Names is sorted and duplicate-free, All parallels it, every
// canonical name constructs a kernel reporting exactly that name,
// aliases resolve to their canonical kernel, and the unknown-name error
// advertises precisely the Names list.
func TestRegistryNamesMatchKernels(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate canonical name %q", n)
		}
		seen[n] = true
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d kernels, Names() has %d", len(all), len(names))
	}
	for i, k := range all {
		if k.Name() != names[i] {
			t.Errorf("All()[%d].Name() = %q, want %q", i, k.Name(), names[i])
		}
	}
	for _, n := range names {
		k, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if k.Name() != n {
			t.Errorf("ByName(%q) built kernel named %q", n, k.Name())
		}
	}
	for _, e := range registry {
		for _, alias := range e.aliases {
			if seen[alias] {
				t.Errorf("alias %q collides with a canonical name", alias)
			}
			k, err := ByName(alias)
			if err != nil {
				t.Errorf("ByName(alias %q): %v", alias, err)
				continue
			}
			if k.Name() != e.name {
				t.Errorf("alias %q resolved to %q, want %q", alias, k.Name(), e.name)
			}
		}
	}
	_, err := ByName("definitely-not-a-kernel")
	if err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if want := strings.Join(names, ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not advertise the registry list %q", err, want)
	}
}
