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

// forgeHeader returns an empty-graph container under the given magic,
// version and header counts, with a valid checksum, so the reader's own
// header checks are all that stands between it and a graph.
func forgeHeader(magic string, version uint32, nVerts, nEdges uint64) []byte {
	buf := []byte(magic)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, nVerts)
	buf = binary.LittleEndian.AppendUint64(buf, nEdges)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // offsets[0]
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestBinaryRejectsBadMagic checks that a container is refused unless its
// header names this format: the magic and the one version the reader
// knows. Version 2, a compressed form the reader no longer parses, is
// refused by number even behind a matching checksum.
func TestBinaryRejectsBadMagic(t *testing.T) {
	if g, err := ReadBinary(bytes.NewReader(forgeHeader(binaryMagic, binaryVersion, 0, 0))); err != nil || g.NumVertices() != 0 {
		t.Fatalf("forged header with honest contents: %v", err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"checksum mismatch":     {append([]byte("XXXX"), make([]byte, 64)...), "checksum mismatch"},
		"bad magic":             {forgeHeader("XXXX", binaryVersion, 0, 0), `magic "XXXX"`},
		"version 2":             {forgeHeader(binaryMagic, 2, 0, 0), "unsupported version 2"},
		"counts exceed payload": {forgeHeader(binaryMagic, binaryVersion, 1<<40, 0), "exceed payload"},
	} {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadFormat naming %q", name, err, tc.want)
		}
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
