package kernels

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestFrontierReset checks that a recycled frontier is indistinguishable
// from a fresh one, including after ActivateAll (whose member bits stay
// behind from any explicit Activate calls that preceded it).
func TestFrontierReset(t *testing.T) {
	f := NewFrontier(8)
	f.Activate(3)
	f.Activate(5)
	f.ActivateAll()
	f.Reset()
	if f.Count() != 0 {
		t.Fatalf("after Reset: Count = %d, want 0", f.Count())
	}
	for v := 0; v < 8; v++ {
		if f.Contains(graph.VertexID(v)) {
			t.Fatalf("after Reset: Contains(%d) = true, want false", v)
		}
	}
	f.Activate(5)
	f.Activate(5) // idempotent, as on a fresh frontier
	if f.Count() != 1 || !f.Contains(5) {
		t.Fatalf("after Reset+Activate(5): Count = %d, Contains(5) = %v", f.Count(), f.Contains(5))
	}
	got := f.Vertices()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("after Reset+Activate(5): Vertices = %v, want [5]", got)
	}
}

// TestFrontierReuseAllocGate pins the double-buffering contract RunSerial
// and the sim engines rely on: refilling a Reset frontier allocates
// nothing once the activation list has reached capacity.
func TestFrontierReuseAllocGate(t *testing.T) {
	const n = 1024
	f := NewFrontier(n)
	fill := func() {
		f.Reset()
		for v := 0; v < n; v += 2 {
			f.Activate(graph.VertexID(v))
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("recycled frontier allocates %.1f times per refill, want 0", allocs)
	}
}

// wordVertices decodes ForEachWord's words into the vertex ids they
// carry, in the order the words arrive.
func wordVertices(f *Frontier) []graph.VertexID {
	var out []graph.VertexID
	f.ForEachWord(func(base graph.VertexID, word uint64) {
		for word != 0 {
			out = append(out, base+graph.VertexID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	})
	return out
}

// TestFrontierWordIteration checks the bitset word view: ForEachWord
// must visit exactly the non-zero words in ascending order, and its words
// must decode to the sorted vertex set regardless of activation order.
func TestFrontierWordIteration(t *testing.T) {
	f := NewFrontier(150)
	for _, v := range []graph.VertexID{149, 3, 64, 127, 65, 0} {
		f.Activate(v)
	}
	got := wordVertices(f)
	want := []graph.VertexID{0, 3, 64, 65, 127, 149}
	if !slices.Equal(got, want) {
		t.Fatalf("ForEachWord decodes to %v, want %v", got, want)
	}
	var bases []graph.VertexID
	f.ForEachWord(func(base graph.VertexID, word uint64) {
		if word == 0 {
			t.Fatalf("ForEachWord delivered a zero word at base %d", base)
		}
		bases = append(bases, base)
	})
	for i := 1; i < len(bases); i++ {
		if bases[i] <= bases[i-1] {
			t.Fatalf("word bases out of order: %v", bases)
		}
	}
}

// TestFrontierWordIterationAllActive checks the synthesized all-active
// word view, including the partial last word of a non-multiple-of-64
// vertex count.
func TestFrontierWordIterationAllActive(t *testing.T) {
	const n = 70 // one full word plus a 6-bit partial
	f := NewFrontier(n)
	f.ActivateAll()
	got := wordVertices(f)
	if len(got) != n {
		t.Fatalf("all-active words decode to %d vertices, want %d", len(got), n)
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("all-active word decode visits %d at position %d", v, i)
		}
	}
	var words int
	f.ForEachWord(func(base graph.VertexID, word uint64) {
		words++
		if base == 64 && word != uint64(1)<<6-1 {
			t.Fatalf("partial last word = %#x, want %#x", word, uint64(1)<<6-1)
		}
	})
	if words != 2 {
		t.Fatalf("all-active word count = %d, want 2", words)
	}
}
