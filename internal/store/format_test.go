package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// goldenGraph is the fixed fixture the byte-exact golden test pins: 5
// vertices, 7 weighted edges, shaped so a small segment target splits it
// across segments (vertex 4 has no out-edges, exercising trailing
// zero-degree handling).
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 3, 1.5)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 0.25)
	b.AddEdge(2, 4, 8)
	b.AddEdge(3, 3, 1) // self-loop
	b.AddEdge(3, 4, 3)
	g, err := b.BuildWeighted()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenContainerFullHex is goldenGraph encoded with SegmentBytes=16 (two
// edges per segment). Regenerating it is a format change: any edit to the
// gcsr2 layout must update this constant deliberately, in the same
// commit, with a version bump if containers already exist in the wild.
const goldenContainerFullHex = "474353320100000001000000050000000000000049ee7cdb" + // header: magic, v1, weighted, V=5, crc
	"01020000003f0000c03f" + // seg 0: vertex 0 adj {1,3} varint-delta + weights 0.5, 1.5
	"020004000000400000803e00000041" + // seg 1: vertices 1-2 adj {2},{0,4} + weights 2, 0.25, 8
	"03010000803f00004040" + // seg 2: vertex 3 adj {3,4} + weights 1, 3
	"0700000000000000" + // index: nEdges=7
	"0400000000000000" + // nSegs=4... vertex 4's empty tail segment
	"01000000" + // iflags: non-negative weights
	"0201020200" + // degrees 2,1,2,2,0
	"0000000000000000010000000000000002000000000000001800000000000000" +
	"0a00000000000000eafe537c" + // seg row 0
	"0100000000000000020000000000000003000000000000002200000000000000" +
	"0f00000000000000deb80460" + // seg row 1
	"0300000000000000010000000000000002000000000000003100000000000000" +
	"0a000000000000002cf2a2a4" + // seg row 2
	"0400000000000000010000000000000000000000000000003b00000000000000" +
	"0000000000000000" + "00000000" + // seg row 3: vertex 4, zero edges, empty payload
	"a56602aa" + // index crc
	"cd00000000000000" + "4743533254524c52" // footer: indexLen=205, trailer magic

// TestContainerGolden locks the on-disk format byte-for-byte.
func TestContainerGolden(t *testing.T) {
	data, err := EncodeGraph(goldenGraph(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(data)
	want := goldenContainerFullHex
	if got != want {
		t.Fatalf("container bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestHeaderGolden pins the 24-byte header independently of the rest.
func TestHeaderGolden(t *testing.T) {
	got := hex.EncodeToString(encodeHeader(header{weighted: true, nVerts: 5}))
	const want = "474353320100000001000000050000000000000049ee7cdb"
	if got != want {
		t.Fatalf("header bytes = %s, want %s", got, want)
	}
}

// encodeFixture builds container bytes for g or fails the test.
func encodeFixture(t *testing.T, g *graph.Graph, segBytes int64) []byte {
	t.Helper()
	data, err := EncodeGraph(g, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertGraphsEqual compares two graphs' CSR arrays exactly.
func assertGraphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Offsets(), want.Offsets()) {
		t.Fatalf("offsets %v, want %v", got.Offsets(), want.Offsets())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges %v, want %v", got.Edges(), want.Edges())
	}
	if !reflect.DeepEqual(got.Weights(), want.Weights()) {
		t.Fatalf("weights %v, want %v", got.Weights(), want.Weights())
	}
}

// TestRoundTrip covers encode → open → materialize across segment sizes
// and weightedness, including the all-in-one-segment and
// one-vertex-per-segment extremes.
func TestRoundTrip(t *testing.T) {
	weighted := goldenGraph(t)
	unweighted, err := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 0}, {Src: 2, Dst: 4}, {Src: 3, Dst: 3}, {Src: 3, Dst: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"weighted", weighted}, {"unweighted", unweighted}} {
		for _, segBytes := range []int64{1, 16, DefaultSegmentBytes} {
			data := encodeFixture(t, tc.g, segBytes)
			st, err := OpenBytes(data, Options{})
			if err != nil {
				t.Fatalf("%s/seg=%d: open: %v", tc.name, segBytes, err)
			}
			if st.NumVertices() != tc.g.NumVertices() || st.NumEdges() != tc.g.NumEdges() || st.Weighted() != tc.g.Weighted() {
				t.Fatalf("%s/seg=%d: V/E/weighted = %d/%d/%v", tc.name, segBytes, st.NumVertices(), st.NumEdges(), st.Weighted())
			}
			if segBytes == 1 && st.NumSegments() != 5 {
				// Each of the four out-edged vertices closes its own segment;
				// the zero-degree tail vertex flushes as an empty fifth.
				t.Fatalf("%s: %d segments at 1-byte target, want 5", tc.name, st.NumSegments())
			}
			mat, err := st.Materialize()
			if err != nil {
				t.Fatalf("%s/seg=%d: materialize: %v", tc.name, segBytes, err)
			}
			assertGraphsEqual(t, mat, tc.g)
			if err := st.Close(); err != nil {
				t.Fatalf("%s/seg=%d: close: %v", tc.name, segBytes, err)
			}
		}
	}
}

// TestRoundTripEmpty covers the zero-vertex and zero-edge containers.
func TestRoundTripEmpty(t *testing.T) {
	for _, n := range []int{0, 3} {
		g, err := graph.FromEdges(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenBytes(encodeFixture(t, g, 64), Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.NumVertices() != n || st.NumEdges() != 0 {
			t.Fatalf("n=%d: got V=%d E=%d", n, st.NumVertices(), st.NumEdges())
		}
		mat, err := st.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, mat, g)
		mustClose(t, st)
	}
}

func mustClose(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// isTypedCorruption reports whether err is one of the two sanctioned
// corruption errors — the "typed error, never panic" contract.
func isTypedCorruption(err error) bool {
	return errors.Is(err, ErrBadContainer) || errors.Is(err, ErrCorrupt)
}

// fullRead opens and fully decodes a container, returning the first
// error on the way.
func fullRead(data []byte) error {
	st, err := OpenBytes(data, Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Materialize(); err != nil {
		return err
	}
	return nil
}

// TestCorruptionTruncation truncates a valid container at every length
// and requires a typed error — never a panic, never a silent success.
func TestCorruptionTruncation(t *testing.T) {
	data := encodeFixture(t, goldenGraph(t), 16)
	for k := 0; k < len(data); k++ {
		err := fullRead(data[:k])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes read successfully", k, len(data))
		}
		if !isTypedCorruption(err) {
			t.Fatalf("truncation to %d bytes: untyped error %v", k, err)
		}
	}
}

// TestCorruptionBitFlips flips bits in every byte of a valid container
// and requires every region — header, payloads, index, footer — to catch
// its own damage with a typed error.
func TestCorruptionBitFlips(t *testing.T) {
	data := encodeFixture(t, goldenGraph(t), 16)
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= mask
			err := fullRead(mut)
			if err == nil {
				t.Fatalf("flip 0x%02x at byte %d read successfully", mask, i)
			}
			if !isTypedCorruption(err) {
				t.Fatalf("flip 0x%02x at byte %d: untyped error %v", mask, i, err)
			}
		}
	}
}

// forgeContainer wraps arbitrary adjacency bytes in a one-segment
// unweighted container whose every checksum is valid, so what load's
// decoder makes of them is the only defence left.
func forgeContainer(degrees []int64, adj []byte) []byte {
	offsets := make([]int64, len(degrees)+1)
	for v, d := range degrees {
		offsets[v+1] = offsets[v] + d
	}
	nEdges := uint64(offsets[len(degrees)])
	seg := segMeta{count: uint64(len(degrees)), edges: nEdges, off: headerSize, len: uint64(len(adj)), crc: ieeeCRC(adj)}
	ix := encodeIndex(nEdges, true, offsets, []segMeta{seg})
	data := append(encodeHeader(header{nVerts: uint64(len(degrees))}), adj...)
	return append(append(data, ix...), encodeFooter(uint64(len(ix)))...)
}

// wrappedGapContainer is the forged container whose vertex 0 carries
// [uvarint(5), uvarint(2^64-3)]: the sum wraps to 2 in uint64, and a
// decoder that checks the id range only after the add reads it as the
// unsorted list [5 2].
func wrappedGapContainer() []byte {
	adj := binary.AppendUvarint(binary.AppendUvarint(nil, 5), 1<<64-3)
	return forgeContainer([]int64{2, 0, 0, 0, 0, 0, 0, 0}, adj)
}

// TestLoadRejectsForgedAdjacency checks each of the decode-time checks
// on a segment whose CRC matches: they are what stands between a
// well-checksummed lie and the kernels.
func TestLoadRejectsForgedAdjacency(t *testing.T) {
	if err := fullRead(forgeContainer([]int64{2, 0, 1}, []byte{1, 1, 0})); err != nil {
		t.Fatalf("forged container with honest adjacency: %v", err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"gap that wraps uint64":      {wrappedGapContainer(), "segment 0 vertex 0: graph: compressed neighbor overflows"},
		"neighbor equal to V":        {forgeContainer([]int64{1, 2, 0}, []byte{0, 1, 2}), "segment 0 vertex 1: graph: compressed neighbor outside the vertex range"},
		"bytes after the last list":  {forgeContainer([]int64{1, 1, 0}, []byte{0, 1, 2}), "segment 0 vertex 2: adjacency bytes left over"},
		"adjacency ends mid-varint":  {forgeContainer([]int64{1, 1}, []byte{0, 0x81}), "segment 0 vertex 1: graph: truncated"},
		"five-byte id past uint32":   {forgeContainer([]int64{1}, []byte{0xff, 0xff, 0xff, 0xff, 0x7f}), "segment 0 vertex 0: graph: compressed neighbor overflows"},
		"list borrows from the next": {forgeContainer([]int64{1, 1}, []byte{0x80, 0x80}), "segment 0 vertex 0: graph: truncated"},
	} {
		err := fullRead(tc.data)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorrupt naming %q", name, err, tc.want)
		}
	}
}

// TestOpenRejectsGarbage covers the structural error paths directly.
func TestOpenRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"too-short": make([]byte, 30),
		"zeros":     make([]byte, 256),
	}
	for name, data := range cases {
		if err := fullRead(data); !isTypedCorruption(err) {
			t.Fatalf("%s: err = %v, want typed corruption", name, err)
		}
	}
}
