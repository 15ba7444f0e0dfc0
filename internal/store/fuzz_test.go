package store

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzSegmentCodec throws arbitrary bytes at the full container read
// path: open, index decode, every segment's checksum + varint decode
// through the tier (Pin, PinEdges, and the weight upgrade of an
// edge-only frame), and materialization. The contract under fuzz is
// exactly the corruption tests' contract — a typed error or a
// successful, internally consistent read; never a panic, never an
// unbounded allocation from a forged count — and every way of reading a
// segment agrees with the others on its edge ids and its error class.
// Wired into scripts/check.sh's fuzz stage.
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
		pinErr := pinEverySegment(t, data, st)
		g, err := st.Materialize()
		if (err == nil) != (pinErr == nil) {
			t.Fatalf("materialize: %v, but pinning every segment: %v", err, pinErr)
		}
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

// errClass names the corruption class of err, or "nil".
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrBadContainer):
		return "bad"
	}
	return "untyped"
}

// pinEverySegment reads each segment three ways — Pin on st, PinEdges
// on a second handle over data, then Pin on that handle, which adds the
// weights to its edge-only frame — and requires them to agree on the
// error class and, where they succeed, on the edge ids and weights. It
// returns the first error, leaving no pin behind.
func pinEverySegment(t *testing.T, data []byte, st *Store) (first error) {
	t.Helper()
	edges, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatalf("second open of a container that opened: %v", err)
	}
	for i := range st.segs {
		v := graph.VertexID(st.segs[i].first)
		full, errFull := st.Pin(v)
		bare, errBare := edges.PinEdges(v)
		up, errUp := edges.Pin(v)
		if c := errClass(errFull); c == "untyped" || c != errClass(errBare) || c != errClass(errUp) {
			t.Fatalf("segment %d: Pin %v, PinEdges %v, upgrade %v", i, errFull, errBare, errUp)
		}
		if errFull != nil {
			if first == nil {
				first = errFull
			}
			continue
		}
		if bare.Weights != nil || !slices.Equal(bare.Edges, full.Edges) || !slices.Equal(up.Edges, full.Edges) {
			t.Fatalf("segment %d: PinEdges or the upgrade lent edge ids %v / %v, Pin %v", i, bare.Edges, up.Edges, full.Edges)
		}
		if !slices.EqualFunc(up.Weights, full.Weights, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Fatalf("segment %d: the upgrade lent weights %v, Pin %v", i, up.Weights, full.Weights)
		}
		full.Release()
		bare.Release()
		up.Release()
	}
	if err := edges.Close(); err != nil {
		t.Fatalf("close of the second handle: %v", err)
	}
	return first
}
