package kernels

import (
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
	var got []graph.VertexID
	f.ForEach(func(v graph.VertexID) { got = append(got, v) })
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("after Reset+Activate(5): ForEach visits %v, want [5]", got)
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
