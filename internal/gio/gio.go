// Package gio reads and writes graphs in two formats: a human-readable
// edge-list text format compatible with SNAP-style dumps ("src dst
// [weight]" per line, '#' comments), and a compact binary CSR container
// with a checksummed header for fast reload of generated datasets.
package gio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// edgeListMaxLine caps a single edge-list line. A data line is two or
// three decimal fields, so a megabyte is already absurdly generous; the
// cap exists to bound memory on hostile input, and hitting it is reported
// as a positioned error rather than a silent truncation.
const edgeListMaxLine = 1024 * 1024

// ReadEdgeList parses a SNAP-style edge list. Lines starting with '#' or
// '%' are comments; each data line is "src dst" or "src dst weight" with
// whitespace separation. The vertex count is max(id)+1 unless numVertices
// is positive, in which case it is used (and out-of-range ids error).
//
// Without a declared vertex count, the id space may exceed the edge count
// by at most 1000x: CSR storage is proportional to max(id), so a stray
// huge id in a small file would otherwise demand gigabytes. Pass
// numVertices explicitly for legitimately sparser id spaces.
func ReadEdgeList(r io.Reader, numVertices int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), edgeListMaxLine)
	var edges []graph.Edge
	weighted := false
	maxID := graph.VertexID(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("gio: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad dst: %v", lineNo, err)
		}
		w := float32(1)
		if len(fields) == 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("gio: line %d: bad weight: %v", lineNo, err)
			}
			w = float32(wf)
			weighted = true
		}
		e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: w}
		edges = append(edges, e)
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops mid-file when a line exceeds its buffer; a
			// generic wrap here used to surface as an unpositioned error
			// (and before that, silence). Name the line and the cap so the
			// caller can find the offending record.
			return nil, fmt.Errorf("gio: line %d: exceeds %d-byte line limit: %w", lineNo+1, edgeListMaxLine, err)
		}
		return nil, fmt.Errorf("gio: scanning edge list: %w", err)
	}
	n := int(maxID) + 1
	if len(edges) == 0 {
		n = 0
	}
	if numVertices > 0 {
		if n > numVertices {
			return nil, fmt.Errorf("gio: edge references vertex %d, beyond declared count %d", maxID, numVertices)
		}
		n = numVertices
	} else if n > 1000*(len(edges)+1) {
		return nil, fmt.Errorf("gio: max vertex id %d implausible for %d edges; pass the vertex count explicitly", maxID, len(edges))
	}
	if weighted {
		return graph.FromEdgesWeighted(n, edges)
	}
	return graph.FromEdges(n, edges)
}

// WriteEdgeList writes the graph as an edge-list with a descriptive
// comment header. Weighted graphs emit the third column.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices: %d\n# edges: %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(src, dst graph.VertexID, wt float32) bool {
		if g.Weighted() {
			_, werr = fmt.Fprintf(bw, "%d %d %g\n", src, dst, wt)
		} else {
			_, werr = fmt.Fprintf(bw, "%d %d\n", src, dst)
		}
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Binary CSR container format (little-endian):
//
//	magic   [4]byte  "GCSR"
//	version uint32   1
//	flags   uint32   bit0 = weighted
//	nVerts  uint64
//	nEdges  uint64
//	offsets [nVerts+1]int64
//	edges   [nEdges]uint32
//	weights [nEdges]float32   (if weighted)
//	crc32   uint32            (IEEE, over everything before it)
const (
	binaryMagic   = "GCSR"
	binaryVersion = 1
	flagWeighted  = 1
)

// ErrBadFormat reports a malformed or corrupted binary graph container.
var ErrBadFormat = errors.New("gio: bad binary graph format")

// WriteBinary serializes the graph into the binary CSR container.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	bw := bufio.NewWriterSize(mw, 1<<20)

	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	flags := uint32(0)
	if g.Weighted() {
		flags |= flagWeighted
	}
	hdr := []uint64{binaryVersion, uint64(flags), uint64(g.NumVertices()), uint64(g.NumEdges())}
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(hdr[0]))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(hdr[1]))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[:], hdr[2])
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[:], hdr[3])
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	for _, o := range g.Offsets() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], e)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	if g.Weighted() {
		for _, wt := range g.Weights() {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(wt))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Checksum straight to the underlying writer (it covers all prior bytes).
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	_, err := w.Write(buf[:4])
	return err
}

// ReadBinary deserializes a graph from the binary CSR container, verifying
// the checksum and all CSR invariants. The container
// is read fully into memory first: the checksum trails the payload, and
// the target datasets are far smaller than host memory.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading container: %w", ErrBadFormat, err)
	}
	if len(data) < 4+4+4+8+8+4 {
		return nil, fmt.Errorf("%w: container too short (%d bytes)", ErrBadFormat, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	want := crc32.ChecksumIEEE(payload)
	got := binary.LittleEndian.Uint32(trailer)
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch: file %08x, computed %08x", ErrBadFormat, got, want)
	}
	p := payload
	if string(p[:4]) != binaryMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, p[:4])
	}
	p = p[4:]
	version := binary.LittleEndian.Uint32(p)
	if version != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	p = p[4:]
	flags := binary.LittleEndian.Uint32(p)
	p = p[4:]
	nVerts := binary.LittleEndian.Uint64(p)
	p = p[8:]
	nEdges := binary.LittleEndian.Uint64(p)
	p = p[8:]

	// Bound the header counts by the payload that must carry them BEFORE
	// any allocation: a crafted header (with a matching checksum, which a
	// fuzzer can manufacture) must not drive `make` with multi-gigabyte
	// lengths or overflow the `need` arithmetic below.
	if nVerts >= uint64(len(p))/8 || nEdges > uint64(len(p))/4 {
		return nil, fmt.Errorf("%w: header counts V=%d E=%d exceed payload %d bytes", ErrBadFormat, nVerts, nEdges, len(p))
	}
	need := (nVerts+1)*8 + nEdges*4
	if flags&flagWeighted != 0 {
		need += nEdges * 4
	}
	if uint64(len(p)) != need {
		return nil, fmt.Errorf("%w: payload %d bytes, header implies %d", ErrBadFormat, len(p), need)
	}
	offsets := make([]int64, nVerts+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	edges := make([]graph.VertexID, nEdges)
	for i := range edges {
		edges[i] = binary.LittleEndian.Uint32(p)
		p = p[4:]
	}
	var weights []float32
	if flags&flagWeighted != 0 {
		weights = make([]float32, nEdges)
		for i := range weights {
			weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(p))
			p = p[4:]
		}
	}
	g, err := graph.NewCSR(offsets, edges, weights)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return g, nil
}

// SaveBinaryFile writes the graph to path in the binary container format.
func SaveBinaryFile(path string, g *graph.Graph) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteBinary(w, g) })
}

// WriteFileAtomic writes path through write so that path holds either its
// previous contents or all of the new ones, never a prefix: write fills a
// temporary file in path's directory, which is synced, closed and only
// then renamed over path. A failure this process sees removes the
// temporary file, and write's error takes precedence. A process killed
// mid-write leaves path as it was and its path.tmpN behind; the next
// write takes the first free name past it.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := createSibling(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already closed when rename failed; the error is moot
			_ = os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// createSibling creates a new file next to path, with the permissions
// os.Create would give path itself, under the first free name path.tmpN.
func createSibling(path string) (*os.File, error) {
	for i := 0; ; i++ {
		f, err := os.OpenFile(path+".tmp"+strconv.Itoa(i), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, os.ErrExist) {
			return f, err
		}
	}
}

// LoadBinaryFile reads a graph from a binary container file.
func LoadBinaryFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// LoadEdgeListFile reads a graph from a SNAP-style edge-list file.
func LoadEdgeListFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, 0)
}
