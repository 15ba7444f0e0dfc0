package store

import (
	"testing"

	"repro/internal/graph"
)

// FuzzSegmentCodec throws arbitrary bytes at the full container read
// path: open, index decode, every segment's checksum + varint decode,
// and materialization. The contract under fuzz is exactly the corruption
// tests' contract — a typed error or a successful, internally consistent
// read; never a panic, never an unbounded allocation from a forged
// count. Wired into scripts/check.sh's fuzz stage.
func FuzzSegmentCodec(f *testing.F) {
	// Seeds: valid containers in several shapes, plus pre-damaged ones so
	// the fuzzer starts near the interesting boundaries.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 3, 1.5)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 0.25)
	b.AddEdge(2, 4, 8)
	b.AddEdge(3, 3, 1)
	b.AddEdge(3, 4, 3)
	wg, err := b.BuildWeighted()
	if err != nil {
		f.Fatal(err)
	}
	ug, err := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 5}, {Src: 5, Dst: 0}, {Src: 2, Dst: 3}})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range []*graph.Graph{wg, ug, empty} {
		for _, segBytes := range []int64{1, 16, DefaultSegmentBytes} {
			data, err := EncodeGraph(g, segBytes)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if len(data) > 48 {
				f.Add(data[:len(data)-7]) // truncated
				mut := append([]byte(nil), data...)
				mut[len(mut)/2] ^= 0x40 // bit-flipped
				f.Add(mut)
			}
		}
	}
	// A gap the codec once let wrap into range: well-checksummed, and
	// read back as an unsorted list.
	f.Add(wrappedGapContainer())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenBytes(data, Options{})
		if err != nil {
			if !isTypedCorruption(err) {
				t.Fatalf("open: untyped error %v", err)
			}
			return
		}
		g, err := st.Materialize()
		if err != nil {
			if !isTypedCorruption(err) {
				t.Fatalf("materialize: untyped error %v", err)
			}
			_ = st.Close()
			return
		}
		// A successful read must be internally consistent: the
		// materialized CSR revalidates, and counts agree with the index.
		if err := g.Validate(); err != nil {
			t.Fatalf("materialized graph invalid: %v", err)
		}
		if g.NumVertices() != st.NumVertices() || g.NumEdges() != st.NumEdges() {
			t.Fatalf("V/E mismatch: %d/%d vs %d/%d", g.NumVertices(), g.NumEdges(), st.NumVertices(), st.NumEdges())
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after clean read: %v", err)
		}
	})
}
