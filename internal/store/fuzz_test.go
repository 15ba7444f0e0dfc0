package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzSegmentCodec throws arbitrary bytes at the full container read
// path: open, index decode, every segment's checksum + varint decode
// through the tier (Pin, PinEdges, the weight upgrade of an edge-only
// frame, and read-throughs of every list and of a sparse subset), and
// materialization. The contract under fuzz is
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
	// Well-checksummed damage to a list the sparse read-through skips
	// (vertices 0 and 2 of these) — framing it must refuse, and an id out
	// of range it must not look at — and a nine-byte varint it must take.
	over := append(bytes.Repeat([]byte{0x80}, 10), 0x00)
	f.Add(forgeContainer([]int64{1, 1, 0}, append(over, 0x01)))
	f.Add(forgeContainer([]int64{0, 1, 1}, []byte{0x00, 0x81}))
	f.Add(forgeContainer([]int64{0, 1, 1}, []byte{0x00, 0x01, 0x05}))
	f.Add(forgeContainer([]int64{1, 1, 0}, []byte{0x09, 0x01}))
	f.Add(forgeContainer([]int64{1, 1, 0}, append(bytes.Repeat([]byte{0x80}, 8), 0x00, 0x01)))

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

// pinEverySegment reads each segment five ways — Pin on st, PinEdges
// on a second handle over data, then Pin on that handle, which adds the
// weights to its edge-only frame, and on a third handle whose budget
// holds no frame, Pin, which reads every list through, and PinLists of a
// sparse subset, checked by checkSparseReadThrough — and requires them to
// agree on the error class and, where they succeed, on the edge ids and
// weights. It returns the first error, leaving no pin behind.
func pinEverySegment(t *testing.T, data []byte, st *Store) (first error) {
	t.Helper()
	edges, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatalf("second open of a container that opened: %v", err)
	}
	through, err := OpenBytes(data, Options{LocalBytes: 1})
	if err != nil {
		t.Fatalf("third open of a container that opened: %v", err)
	}
	for i := range st.segs {
		v := graph.VertexID(st.segs[i].first)
		checkSparseReadThrough(t, data, through, i)
		full, errFull := st.Pin(v)
		bare, errBare := edges.PinEdges(v)
		up, errUp := edges.Pin(v)
		whole, errWhole := through.Pin(v)
		if c := errClass(errFull); c == "untyped" || c != errClass(errBare) || c != errClass(errUp) || c != errClass(errWhole) {
			t.Fatalf("segment %d: Pin %v, PinEdges %v, upgrade %v, read-through %v", i, errFull, errBare, errUp, errWhole)
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
		if !slices.EqualFunc(up.Weights, full.Weights, sameBits) {
			t.Fatalf("segment %d: the upgrade lent weights %v, Pin %v", i, up.Weights, full.Weights)
		}
		if !slices.Equal(whole.Edges, full.Edges) || !slices.EqualFunc(whole.Weights, full.Weights, sameBits) {
			t.Fatalf("segment %d: the read-through lent %v %v, Pin %v %v", i, whole.Edges, whole.Weights, full.Edges, full.Weights)
		}
		full.Release()
		bare.Release()
		up.Release()
		whole.Release()
	}
	if s := through.Stats(); s.Misses != s.ReadThroughs {
		t.Fatalf("a handle with no room for a frame loaded one: %+v", s)
	}
	if err := edges.Close(); err != nil {
		t.Fatalf("close of the second handle: %v", err)
	}
	if err := through.Close(); err != nil {
		t.Fatalf("close of the third handle: %v", err)
	}
	return first
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// checkSparseReadThrough reads every third list of segment idx, from its
// second vertex, through st, whose budget holds no frame, and checks the
// read against a plain binary.Uvarint walk of the payload. The read must
// fail with ErrCorrupt if the payload's CRC does not match — a flipped
// weight byte included — or if its adjacency does not split into
// exactly the segment's varints, skipped lists included; or if a served
// list holds an id out of range, which a skipped list may. Otherwise it
// must serve every list asked for with the walk's ids and the payload's
// weights.
func checkSparseReadThrough(t *testing.T, data []byte, st *Store, idx int) {
	t.Helper()
	m := st.segs[idx]
	var ask []graph.VertexID
	for u := m.first + 1; u < m.first+m.count; u += 3 {
		ask = append(ask, graph.VertexID(u))
	}
	if len(ask) == 0 {
		return
	}
	payload := data[m.off : m.off+m.len]
	adj := payload
	if st.weighted {
		adj = payload[:m.len-4*m.edges]
	}
	var gaps []uint64
	at := 0
	for range m.edges {
		g, n := binary.Uvarint(adj[at:])
		if n <= 0 {
			break
		}
		gaps = append(gaps, g)
		at += n
	}
	ok := ieeeCRC(payload) == m.crc && uint64(len(gaps)) == m.edges && at == len(adj)
	base := st.offsets[m.first]
	ids := make(map[graph.VertexID][]graph.VertexID)
	for _, u := range ask {
		if !ok {
			break
		}
		prev := uint64(0)
		for _, g := range gaps[st.offsets[u]-base : st.offsets[u+1]-base] {
			if g > 0xFFFFFFFF || prev+g >= uint64(st.NumVertices()) {
				ok = false
				break
			}
			prev += g
			ids[u] = append(ids[u], graph.VertexID(prev))
		}
	}
	sg, err := st.PinLists(ask[0], ask[1:], true)
	if !ok {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment %d: sparse read-through of a damaged payload: err = %v, want ErrCorrupt", idx, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("segment %d: sparse read-through of %d lists: %v", idx, len(ask), err)
	}
	for _, u := range ask {
		lo, hi := st.offsets[u]-base, st.offsets[u+1]-base
		if !slices.Equal(sg.Edges[lo:hi], ids[u]) {
			t.Fatalf("segment %d vertex %d: read through %v, want %v", idx, u, sg.Edges[lo:hi], ids[u])
		}
		if !st.weighted {
			continue
		}
		for k := lo; k < hi; k++ {
			w := binary.LittleEndian.Uint32(payload[len(adj)+4*int(k):])
			if math.Float32bits(sg.Weights[k]) != w {
				t.Fatalf("segment %d vertex %d: weight %d read through %v, want bits %08x", idx, u, k-lo, sg.Weights[k], w)
			}
		}
	}
	sg.Release()
}
