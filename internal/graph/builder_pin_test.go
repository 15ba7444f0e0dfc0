package graph_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// csrHash is FNV-64a over a graph's offsets, edges and weight bits.
func csrHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, o := range g.Offsets() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e))
		h.Write(buf[:4])
	}
	for _, w := range g.Weights() {
		binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(w))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// TestBuilderOutputPinned holds Builder's output to the CSR it built
// before its sort changed implementation, bit for bit: which duplicate's
// weight survives is the sort's order, and a different sort — a stable
// one included — keeps other weights, which moves SSSP results and every
// weighted golden. The hashes were recorded with sort.Slice; a change of
// them is a change of the Builder's contract and needs saying so.
func TestBuilderOutputPinned(t *testing.T) {
	lj, err := gen.ComLiveJournal.Generate(0.5, gen.Config{Seed: 42, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	// 6,000 edges over 48 vertices, every weight distinct: most pairs
	// occur several times, each time with a weight of its own.
	b := graph.NewBuilder(48)
	x := uint32(2024)
	for i := 0; i < 6000; i++ {
		x = x*1664525 + 1013904223
		b.AddEdge(graph.VertexID(x>>8%48), graph.VertexID(x>>16%48), float32(i))
	}
	dups, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"com-livejournal 0.5 seed 42 weighted", lj, 0x694eac8a9123f98f},
		{"conflicting duplicate weights", dups, 0x495440160f07a3c6},
	} {
		if got := csrHash(c.g); got != c.want {
			t.Errorf("%s: CSR hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
