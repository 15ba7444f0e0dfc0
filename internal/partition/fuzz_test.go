package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// fuzzGraph decodes an arbitrary byte string into a deterministic graph:
// a vertex count from the first bytes, then consecutive byte pairs as
// directed edges. Degenerate inputs fold into the smallest valid graph,
// so every corpus entry exercises the partitioner rather than the
// builder's error paths.
func fuzzGraph(data []byte) *graph.Graph {
	n := 2
	if len(data) > 0 {
		n = 2 + int(data[0])%254 // 2..255 vertices
		data = data[1:]
	}
	b := graph.NewBuilder(n).DropSelfLoops()
	for i := 0; i+1 < len(data); i += 2 {
		src := graph.VertexID(int(data[i]) % n)
		dst := graph.VertexID(int(data[i+1]) % n)
		b.AddEdge(src, dst, 1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // in-range ids cannot fail to build
	}
	return g
}

// FuzzMultilevelPartition throws arbitrary graphs, part counts, and
// seeds at the multilevel partitioner and checks its contract: a valid
// assignment (every vertex exactly one part in [0,k)), exact coverage,
// determinism, the gated balance promise, and the coarsening round-trip
// invariants (cmap totality and vertex-weight conservation).
func FuzzMultilevelPartition(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint64(1))
	f.Add([]byte{64, 0, 1, 1, 2, 2, 3, 3, 0}, uint8(4), uint64(7))
	f.Add([]byte{255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3}, uint8(8), uint64(42))
	f.Add([]byte{16, 0, 1, 0, 1, 0, 1}, uint8(3), uint64(3)) // parallel edges
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, seed uint64) {
		g := fuzzGraph(data)
		n := g.NumVertices()
		k := 1 + int(kRaw)%16
		if k > n {
			k = n
		}
		m := Multilevel{Seed: seed}
		a, err := m.Partition(g, k)
		if err != nil {
			t.Fatalf("n=%d k=%d seed=%d: %v", n, k, seed, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("n=%d k=%d seed=%d: invalid assignment: %v", n, k, seed, err)
		}
		if a.K != k {
			t.Fatalf("asked for k=%d, assignment says %d", k, a.K)
		}
		// Coverage: part sizes must sum to exactly n — every vertex
		// assigned exactly once.
		var total int64
		for _, s := range a.Sizes() {
			total += s
		}
		if total != int64(n) {
			t.Fatalf("part sizes sum to %d, graph has %d vertices", total, n)
		}
		// Determinism: the same (graph, k, seed) must repartition
		// identically.
		b, err := m.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Parts {
			if a.Parts[v] != b.Parts[v] {
				t.Fatalf("nondeterministic: vertex %d got parts %d and %d", v, a.Parts[v], b.Parts[v])
			}
		}
		// Balance promise, gated exactly as the package documents it:
		// with parts well above the refinement granularity no part may
		// be empty and the imbalance stays moderate.
		if n >= 16*k {
			q := Evaluate(g, a)
			for i, s := range a.Sizes() {
				if s == 0 {
					t.Fatalf("empty part %d with n=%d k=%d", i, n, k)
				}
			}
			if q.VertexImbalance > 1.5 {
				t.Fatalf("vertex imbalance %.3f > 1.5 with n=%d k=%d", q.VertexImbalance, n, k)
			}
		}

		// Coarsening round trip on the symmetrized graph: cmap must map
		// every fine vertex to a coarse one, the coarse graph cannot
		// grow, and heavy-edge matching must conserve total vertex
		// weight (each coarse weight is the sum of its matched fines).
		fine := symmetrize(g)
		coarse := coarsen(fine, seed)
		if coarse.n > fine.n {
			t.Fatalf("coarsening grew the graph: %d -> %d", fine.n, coarse.n)
		}
		var fineW, coarseW int64
		for _, w := range fine.vwt {
			fineW += w
		}
		for _, w := range coarse.vwt {
			coarseW += w
		}
		if fineW != coarseW {
			t.Fatalf("coarsening lost vertex weight: %d -> %d", fineW, coarseW)
		}
		if len(fine.cmap) != fine.n {
			t.Fatalf("cmap covers %d of %d vertices", len(fine.cmap), fine.n)
		}
		mapped := make([]int64, coarse.n)
		for v, cv := range fine.cmap {
			if cv < 0 || int(cv) >= coarse.n {
				t.Fatalf("vertex %d maps to out-of-range coarse vertex %d (coarse n=%d)", v, cv, coarse.n)
			}
			mapped[cv] += fine.vwt[v]
		}
		for cv, w := range mapped {
			if w != coarse.vwt[cv] {
				t.Fatalf("coarse vertex %d weight %d, matched fines sum to %d", cv, coarse.vwt[cv], w)
			}
		}
	})
}

// FuzzMultilevelMatchesReference holds the multilevel partitioner to the
// parent's phases (multilevel_ref_test.go) bit for bit: every level's CSR,
// vertex weights and cmap of a hierarchy coarsened as far as matching
// goes, initialPartition on the same (level, k, seed) input, rebalance on
// the same (level, parts, k, tol) input, refine on the initial, skewed and
// rebalanced parts, and the final Parts with and without coarsening
// inside Partition.
func FuzzMultilevelMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint64(1))
	f.Add([]byte{64, 0, 1, 1, 2, 2, 3, 3, 0}, uint8(4), uint64(7))
	f.Add([]byte{255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3}, uint8(8), uint64(42))
	f.Add([]byte{16, 0, 1, 0, 1, 0, 1}, uint8(3), uint64(3))
	f.Add([]byte{40, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 3, 4, 6, 7, 7, 8, 8, 9, 9, 6, 20, 21, 21, 22, 30, 31}, uint8(15), uint64(43))
	// 64 vertices and 300 pseudo-random edges: five levels whose coarse
	// vertices have several neighbours each.
	dense := []byte{62}
	for x := uint32(1); len(dense) < 601; {
		x = x*1103515245 + 12345
		dense = append(dense, byte(x>>16))
	}
	f.Add(dense, uint8(7), uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, seed uint64) {
		g := fuzzGraph(data)
		k := min(1+int(kRaw)%16, g.NumVertices())

		got, want := symmetrize(g), refSymmetrize(g)
		for depth := 0; ; depth++ {
			equalLevels(t, depth, got, want)
			kl := min(k, got.n)
			initial := initialPartition(got, kl, seed)
			if ref := refInitialPartition(want, kl, seed); !slices.Equal(initial, ref) {
				t.Fatalf("level %d: initialPartition %v, reference %v", depth, initial, ref)
			}
			for _, tol := range []float64{0.9, 1.0, 1.1, 1.5} {
				for j, parts := range [][]int32{slices.Clone(initial), skewedParts(got.n, kl, seed)} {
					equalRefine(t, fmt.Sprintf("level %d, tol %g, input %d", depth, tol, j), got, parts, kl, tol)
					ref := slices.Clone(parts)
					rebalance(got, parts, kl, tol)
					refRebalance(want, ref, kl, tol)
					if !slices.Equal(parts, ref) {
						t.Fatalf("level %d, tol %g, input %d: rebalance %v, reference %v", depth, tol, j, parts, ref)
					}
					equalRefine(t, fmt.Sprintf("level %d, tol %g, rebalanced input %d", depth, tol, j), got, parts, kl, tol)
				}
			}
			nextGot, nextWant := coarsen(got, seed+uint64(depth)), refCoarsen(want, seed+uint64(depth))
			if !slices.Equal(got.cmap, want.cmap) {
				t.Fatalf("level %d: cmap %v, reference %v", depth, got.cmap, want.cmap)
			}
			if float64(nextGot.n) > 0.9*float64(got.n) {
				// Partition's stall rule ends the hierarchy here.
				equalLevels(t, depth+1, nextGot, nextWant)
				break
			}
			got, want = nextGot, nextWant
		}

		for _, m := range []Multilevel{{Seed: seed}, {Seed: seed, CoarsenTo: 1}} {
			a, err := m.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			r, err := refPartition(m, g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Parts, r.Parts) {
				t.Fatalf("%+v k=%d: Parts %v, reference %v", m, k, a.Parts, r.Parts)
			}
		}
	})
}

// equalLevels fails t unless two levels are the same weighted CSR.
func equalLevels(t *testing.T, depth int, got, want *level) {
	t.Helper()
	if got.n != want.n || !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adj, want.adj) ||
		!slices.Equal(got.ewt, want.ewt) || !slices.Equal(got.vwt, want.vwt) {
		t.Fatalf("level %d differs:\n got  n=%d xadj=%v adj=%v ewt=%v vwt=%v\n want n=%d xadj=%v adj=%v ewt=%v vwt=%v",
			depth, got.n, got.xadj, got.adj, got.ewt, got.vwt, want.n, want.xadj, want.adj, want.ewt, want.vwt)
	}
}

// equalRefine fails t unless refine and refRefine move the same vertices
// of a copy of parts, at the default pass budget.
func equalRefine(t *testing.T, what string, lv *level, parts []int32, k int, tol float64) {
	t.Helper()
	got, want := slices.Clone(parts), slices.Clone(parts)
	refine(lv, got, k, 8, tol)
	refRefine(lv, want, k, 8, tol)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: refine %v, reference %v", what, got, want)
	}
}

// skewedParts is a seeded assignment of n vertices to k parts that piles
// weight onto the low parts, so rebalance has moves to make.
func skewedParts(n, k int, seed uint64) []int32 {
	parts := make([]int32, n)
	for v := range parts {
		h := (uint64(v) + seed) * 0x9e3779b97f4a7c15
		parts[v] = int32(min(h%uint64(k), (h>>32)%uint64(k)))
	}
	return parts
}
