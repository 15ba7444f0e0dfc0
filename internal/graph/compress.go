package graph

import (
	"encoding/binary"
	"errors"
)

// Adjacency compression: sorted neighbor lists delta-encode extremely
// well (a vertex's neighbors cluster in id space on natural graphs), and
// the edge list dominates a graph's footprint — the asymmetry the paper's
// Figure 1 is built on. The codec stores each list as a varint first id
// followed by varint gaps. It backs the v2 binary container in package
// gio and the storage analysis in Stats.

// AppendCompressedAdjacency appends the varint-delta encoding of a sorted
// neighbor list to buf and returns the extended buffer.
func AppendCompressedAdjacency(buf []byte, neighbors []VertexID) []byte {
	prev := uint64(0)
	for i, n := range neighbors {
		v := uint64(n)
		if i == 0 {
			buf = binary.AppendUvarint(buf, v)
		} else {
			buf = binary.AppendUvarint(buf, v-prev)
		}
		prev = v
	}
	return buf
}

// Decode failures are fixed values, not formatted ones: the decoder sits
// on the out-of-core engine's segment-miss path, and its callers name
// the vertex and segment being decoded.
var (
	errTruncatedAdjacency = errors.New("graph: truncated compressed adjacency")
	errNeighborOverflow   = errors.New("graph: compressed neighbor overflows vertex id range")
)

// DecodeCompressedAdjacency decodes len(dst) neighbors from buf into dst
// and returns the bytes consumed.
func DecodeCompressedAdjacency(dst []VertexID, buf []byte) (int, error) {
	off := 0
	prev := uint64(0)
	for i := range dst {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, errTruncatedAdjacency
		}
		off += n
		if i > 0 {
			v += prev
		}
		if v > 0xFFFFFFFF {
			return 0, errNeighborOverflow
		}
		dst[i] = VertexID(v)
		prev = v
	}
	return off, nil
}

// CompressedEdgeBytes returns the size of the graph's edge lists under
// varint-delta compression (offsets and weights excluded) — the figure to
// compare against NumEdges()*4 raw bytes.
func CompressedEdgeBytes(g *Graph) int64 {
	var total int64
	var scratch [binary.MaxVarintLen64]byte
	for v := 0; v < g.NumVertices(); v++ {
		prev := uint64(0)
		for i, n := range g.Neighbors(VertexID(v)) {
			x := uint64(n)
			d := x
			if i > 0 {
				d = x - prev
			}
			total += int64(binary.PutUvarint(scratch[:], d))
			prev = x
		}
	}
	return total
}
