package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/gio"
	"repro/internal/graph"
)

// WriterOptions configures a container writer.
type WriterOptions struct {
	// NumVertices is the exact vertex count; Vertex must be called once
	// per vertex in ascending id order.
	NumVertices int
	// Weighted selects the weighted layout; every Vertex call must then
	// supply a weight per neighbor.
	Weighted bool
	// SegmentBytes is the decompressed-size target at which a segment
	// closes (<= 0 selects DefaultSegmentBytes).
	SegmentBytes int64
}

// Writer streams a gcsr2 container in one pass: header first, segment
// payloads as vertices arrive, index and footer at Close. It buffers only
// the current segment plus the (resident-anyway) degree array, so a
// billion-edge container needs memory proportional to one segment.
type Writer struct {
	w    io.Writer
	opts WriterOptions

	offsets []int64 // incremental degree prefix sums
	segs    []segMeta
	next    int // next expected vertex id

	// Current segment accumulator: compressed adjacency and raw weights,
	// flushed together as one payload.
	adj     []byte
	wbytes  []byte
	first   int
	count   int
	edges   uint64
	cost    int64 // decompressed bytes the segment will occupy
	fileOff uint64

	nonNeg bool
	err    error
	closed bool
}

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.NumVertices < 0 || int64(opts.NumVertices) > math.MaxUint32 {
		return nil, fmt.Errorf("store: vertex count %d outside the uint32 id range", opts.NumVertices)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	sw := &Writer{
		w:       w,
		opts:    opts,
		offsets: make([]int64, 1, opts.NumVertices+1),
		nonNeg:  true,
		fileOff: headerSize,
	}
	if _, err := w.Write(encodeHeader(header{weighted: opts.Weighted, nVerts: uint64(opts.NumVertices)})); err != nil {
		sw.err = err
		return nil, err
	}
	return sw, nil
}

// Vertex appends vertex w.next's adjacency. neighbors must be sorted
// ascending with ids below NumVertices; weights must be parallel to
// neighbors when the container is weighted and nil otherwise.
func (sw *Writer) Vertex(neighbors []graph.VertexID, weights []float32) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(fmt.Errorf("store: Vertex after Close"))
	}
	if sw.next >= sw.opts.NumVertices {
		return sw.fail(fmt.Errorf("store: vertex %d beyond declared count %d", sw.next, sw.opts.NumVertices))
	}
	if sw.opts.Weighted {
		if len(weights) != len(neighbors) {
			return sw.fail(fmt.Errorf("store: vertex %d: %d weights for %d neighbors", sw.next, len(weights), len(neighbors)))
		}
	} else if weights != nil {
		return sw.fail(fmt.Errorf("store: vertex %d: weights on an unweighted container", sw.next))
	}
	for i, d := range neighbors {
		if int64(d) >= int64(sw.opts.NumVertices) {
			return sw.fail(fmt.Errorf("store: vertex %d: neighbor %d out of range [0,%d)", sw.next, d, sw.opts.NumVertices))
		}
		if i > 0 && neighbors[i-1] > d {
			return sw.fail(fmt.Errorf("store: vertex %d: neighbors not sorted at position %d", sw.next, i))
		}
	}

	sw.adj = graph.AppendCompressedAdjacency(sw.adj, neighbors)
	for _, wt := range weights {
		if !(wt >= 0) { // negative or NaN, as graph.NonNegativeWeights
			sw.nonNeg = false
		}
		sw.wbytes = binary.LittleEndian.AppendUint32(sw.wbytes, math.Float32bits(wt))
	}
	sw.offsets = append(sw.offsets, sw.offsets[len(sw.offsets)-1]+int64(len(neighbors)))
	sw.count++
	sw.edges += uint64(len(neighbors))
	sw.cost += int64(len(neighbors)) * 4
	if sw.opts.Weighted {
		sw.cost += int64(len(neighbors)) * 4
	}
	sw.next++
	if sw.cost >= sw.opts.SegmentBytes {
		return sw.flushSegment()
	}
	return nil
}

// flushSegment writes the current segment payload and records its row.
func (sw *Writer) flushSegment() error {
	if sw.count == 0 {
		return nil
	}
	payloadLen := uint64(len(sw.adj) + len(sw.wbytes))
	crc := crc32.ChecksumIEEE(sw.adj)
	crc = crc32.Update(crc, crc32.IEEETable, sw.wbytes)
	if _, err := sw.w.Write(sw.adj); err != nil {
		return sw.fail(err)
	}
	if len(sw.wbytes) > 0 {
		if _, err := sw.w.Write(sw.wbytes); err != nil {
			return sw.fail(err)
		}
	}
	sw.segs = append(sw.segs, segMeta{
		first: uint64(sw.first),
		count: uint64(sw.count),
		edges: sw.edges,
		off:   sw.fileOff,
		len:   payloadLen,
		crc:   crc,
	})
	sw.fileOff += payloadLen
	sw.first = sw.next
	sw.count = 0
	sw.edges = 0
	sw.cost = 0
	sw.adj = sw.adj[:0]
	sw.wbytes = sw.wbytes[:0]
	return nil
}

// Close flushes the final segment and writes the index and footer. The
// writer is unusable afterwards.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	if sw.next != sw.opts.NumVertices {
		return sw.fail(fmt.Errorf("store: Close after %d of %d vertices", sw.next, sw.opts.NumVertices))
	}
	if err := sw.flushSegment(); err != nil {
		return err
	}
	sw.closed = true
	ix := encodeIndex(uint64(sw.offsets[len(sw.offsets)-1]), sw.nonNeg, sw.offsets, sw.segs)
	if _, err := sw.w.Write(ix); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.w.Write(encodeFooter(uint64(len(ix)))); err != nil {
		return sw.fail(err)
	}
	return nil
}

func (sw *Writer) fail(err error) error {
	sw.err = err
	return err
}

// WriteGraph streams an in-memory graph into w as a gcsr2 container.
func WriteGraph(w io.Writer, g *graph.Graph, segmentBytes int64) error {
	sw, err := NewWriter(w, WriterOptions{
		NumVertices:  g.NumVertices(),
		Weighted:     g.Weighted(),
		SegmentBytes: segmentBytes,
	})
	if err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if err := sw.Vertex(g.Neighbors(graph.VertexID(v)), g.NeighborWeights(graph.VertexID(v))); err != nil {
			return err
		}
	}
	return sw.Close()
}

// EncodeGraph renders an in-memory graph as gcsr2 container bytes.
func EncodeGraph(g *graph.Graph, segmentBytes int64) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, segmentBytes); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveGraphFile writes g to path as a gcsr2 container. path holds either
// its previous contents or the whole container, never a part of it.
func SaveGraphFile(path string, g *graph.Graph, segmentBytes int64) error {
	return gio.WriteFileAtomic(path, func(w io.Writer) error { return WriteGraph(w, g, segmentBytes) })
}
