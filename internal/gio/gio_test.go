package gio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 2

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Errorf("V=%d E=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unweighted input produced weighted graph")
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2.5\n1 0 0.5\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weighted input produced unweighted graph")
	}
	if w := g.NeighborWeights(0); w[0] != 2.5 {
		t.Errorf("weight = %v, want 2.5", w[0])
	}
}

func TestReadEdgeListDeclaredVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Errorf("V = %d, want 10 (declared)", g.NumVertices())
	}
	if _, err := ReadEdgeList(strings.NewReader("0 99\n"), 10); err == nil {
		t.Error("accepted edge beyond declared vertex count")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",             // too few fields
		"0 1 2 3\n",       // too many fields
		"x 1\n",           // bad src
		"0 y\n",           // bad dst
		"0 1 zz\n",        // bad weight
		"-1 2\n",          // negative id
		"99999999999 0\n", // id overflows uint32
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestReadEdgeListOverlongLine(t *testing.T) {
	// A line past the scanner cap used to end the parse silently: the
	// scanner just stopped, and the edges before the long line came back
	// as a complete graph. It must instead be a positioned error naming
	// the offending line, wrapping bufio.ErrTooLong.
	long := strings.Repeat("#", edgeListMaxLine+1)
	in := "0 1\n1 2\n" + long + "\n2 0\n"
	_, err := ReadEdgeList(strings.NewReader(in), 0)
	if err == nil {
		t.Fatal("overlong line was silently accepted")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error %v does not wrap bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not name line 3", err)
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nothing\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty input: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, gen.Config{Seed: 11, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripUnweighted(t *testing.T) {
	g, err := gen.RMATGraph500(8, 4, gen.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 500, gen.Config{Seed: 17, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() {
		t.Fatal("weighted flag lost")
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryDetectsCorruption(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 100, gen.Config{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corruption not detected: err = %v", err)
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	g, err := gen.ErdosRenyi(30, 100, gen.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncation at %d not detected: err = %v", cut, err)
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	data := append([]byte("XXXX"), make([]byte, 64)...)
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic not detected: err = %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.Community(200, 4, 6, 0.9, gen.Config{Seed: 29, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.gcsr")
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestLoadEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g, err := gen.ErdosRenyi(40, 150, gen.Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(60, 250, gen.Config{Seed: seed, Weighted: seed%2 == 0})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func assertGraphsEqual(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if !graphsEqual(a, b) {
		t.Fatalf("graphs differ: %v vs %v", a, b)
	}
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.Weighted() != b.Weighted() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(graph.VertexID(v)), b.Neighbors(graph.VertexID(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
		if a.Weighted() {
			wa, wb := a.NeighborWeights(graph.VertexID(v)), b.NeighborWeights(graph.VertexID(v))
			for i := range wa {
				if wa[i] != wb[i] {
					return false
				}
			}
		}
	}
	return true
}

func TestCompressedRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g, err := gen.Community(400, 8, 9, 0.9, gen.Config{Seed: 37, Weighted: weighted, DropSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinaryCompressed(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, g, g2)
	}
}

func TestCompressedSmallerThanRaw(t *testing.T) {
	// Community graphs cluster neighbor ids, so delta compression must
	// beat the raw 4-bytes-per-edge layout comfortably.
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 37, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	var raw, compressed bytes.Buffer
	if err := WriteBinary(&raw, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryCompressed(&compressed, g); err != nil {
		t.Fatal(err)
	}
	ratio := float64(raw.Len()) / float64(compressed.Len())
	if ratio < 1.5 {
		t.Errorf("compression ratio %.2f, want >= 1.5 (raw %d, compressed %d)", ratio, raw.Len(), compressed.Len())
	}
}

func TestCompressedDetectsCorruption(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 250, gen.Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x55
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("v2 corruption not detected: %v", err)
	}
}

func TestCompressedEmptyGraph(t *testing.T) {
	g, err := graph.NewCSR([]int64{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 {
		t.Errorf("V = %d", g2.NumVertices())
	}
}

// forgeV2 wraps arbitrary degree and adjacency bytes in an unweighted v2
// container whose checksum is valid, so the reader's own checks are all
// that stands between them and a graph.
func forgeV2(nEdges uint64, degrees []uint64, adj []byte) []byte {
	buf := []byte(binaryMagic)
	buf = binary.LittleEndian.AppendUint32(buf, binaryVersion2)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(degrees)))
	buf = binary.LittleEndian.AppendUint64(buf, nEdges)
	for _, d := range degrees {
		buf = binary.AppendUvarint(buf, d)
	}
	buf = append(buf, adj...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// wrappedGapV2 carries [uvarint(5), uvarint(2^64-3)] as vertex 0's
// list: the sum wraps to 2 in uint64.
func wrappedGapV2() []byte {
	adj := binary.AppendUvarint(binary.AppendUvarint(nil, 5), 1<<64-3)
	return forgeV2(2, []uint64{2, 0, 0, 0, 0, 0, 0, 0}, adj)
}

// TestCompressedRejectsForgedPayload checks the v2 reader's decode-time
// checks behind a matching checksum: the codec's id checks, and a degree
// list that runs past the header's edge count (whose prefix sums would
// otherwise go negative and index the edge array out of range).
func TestCompressedRejectsForgedPayload(t *testing.T) {
	if g, err := ReadBinary(bytes.NewReader(forgeV2(3, []uint64{2, 0, 1}, []byte{1, 1, 0}))); err != nil || g.NumEdges() != 3 {
		t.Fatalf("forged container with honest contents: %v", err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"gap that wraps uint64":   {wrappedGapV2(), "vertex 0: graph: compressed neighbor overflows"},
		"neighbor equal to V":     {forgeV2(3, []uint64{1, 2, 0}, []byte{0, 1, 2}), "vertex 1: graph: compressed neighbor outside the vertex range"},
		"adjacency ends early":    {forgeV2(2, []uint64{1, 1}, []byte{0}), "vertex 1: graph: truncated"},
		"bytes after last list":   {forgeV2(2, []uint64{1, 1}, []byte{0, 1, 1}), "trailing payload bytes"},
		"degree of 2^64-1":        {forgeV2(1, []uint64{1<<64 - 1, 2}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), "degrees exceed the header's 1 edges at vertex 0"},
		"degrees pass edge count": {forgeV2(2, []uint64{2, 1}, []byte{0, 1, 1}), "degrees exceed the header's 2 edges at vertex 1"},
	} {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadFormat naming %q", name, err, tc.want)
		}
	}
}
