package partition

import (
	"math"
	"testing"

	"repro/internal/gen"
)

func TestLDGValidAndBalanced(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{2, 8, 16} {
		a, err := LDG{}.Partition(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		q := Evaluate(g, a)
		if q.VertexImbalance > 1.15 {
			t.Errorf("k=%d: imbalance %.3f exceeds slack", k, q.VertexImbalance)
		}
		for i, s := range a.Sizes() {
			if s == 0 {
				t.Errorf("k=%d: part %d empty", k, i)
			}
		}
	}
}

func TestLDGBeatsHashOnCommunityGraph(t *testing.T) {
	g := testGraph(t)
	const k = 16
	ha, err := Hash{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	la, err := LDG{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	hq, lq := Evaluate(g, ha), Evaluate(g, la)
	if lq.EdgeCut >= hq.EdgeCut {
		t.Errorf("LDG cut %d not below hash cut %d", lq.EdgeCut, hq.EdgeCut)
	}
}

func TestLDGDeterministic(t *testing.T) {
	g := testGraph(t)
	a1, err := LDG{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := LDG{}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.Parts {
		if a1.Parts[v] != a2.Parts[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
}

func TestLDGRespectsCapacity(t *testing.T) {
	// A star graph tempts LDG to dump everything into the hub's part;
	// capacity must prevent that.
	g, err := gen.SkewedStar(1000, 1, 900, 0, gen.Config{Seed: 2, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := LDG{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	capacity := math.Ceil(1.1 * float64(g.NumVertices()) / 4)
	for i, s := range a.Sizes() {
		if float64(s) > capacity {
			t.Errorf("part %d size %d exceeds capacity", i, s)
		}
	}
}

func TestLDGRejectsBadK(t *testing.T) {
	g := testGraph(t)
	if _, err := (LDG{}).Partition(g, 0); err == nil {
		t.Error("accepted k=0")
	}
}

func BenchmarkLDGPartition(b *testing.B) {
	g, err := gen.Community(20000, 64, 10, 0.9, gen.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LDG{}).Partition(g, 32); err != nil {
			b.Fatal(err)
		}
	}
}
