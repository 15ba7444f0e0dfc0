package graph

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// Adjacency compression: sorted neighbor lists delta-encode extremely
// well (a vertex's neighbors cluster in id space on natural graphs), and
// the edge list dominates a graph's footprint — the asymmetry the paper's
// Figure 1 is built on. The codec stores each list as a varint first id
// followed by varint gaps. It backs the gcsr2 segment payloads in package
// store.

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
	errNeighborRange      = errors.New("graph: compressed neighbor outside the vertex range")
)

// DecodeCompressedAdjacency decodes the neighbor lists of consecutive
// vertices from buf: list j fills dst[offsets[j]-offsets[0] :
// offsets[j+1]-offsets[0]], so offsets is the vertices' slice of a CSR
// offsets array (non-decreasing, spanning at most len(dst) — the caller
// has validated it). Every id must be below limit, the graph's vertex
// count. It returns the bytes consumed, or the list that failed and why.
//
// This is the one decoder: a segment miss in package store runs it over a
// whole payload in one call.
// Gaps on natural graphs are short, so varints of one to three bytes
// are decoded inline whenever three bytes of look-ahead exist; anything
// longer, and the buffer's last two bytes, go through binary.Uvarint.
func DecodeCompressedAdjacency(dst []VertexID, offsets []int64, buf []byte, limit uint64) (consumed, list int, err error) {
	if len(offsets) == 0 {
		return 0, 0, nil
	}
	if limit > 1<<32 {
		limit = 1 << 32 // ids are uint32 whatever the caller allows
	}
	base := offsets[0]
	i := 0
	for j := 0; j+1 < len(offsets); j++ {
		// The first id is a gap from zero.
		prev := uint64(0)
		nbrs := dst[offsets[j]-base : offsets[j+1]-base]
		for k := range nbrs {
			// A flat chain, the look-ahead test repeated: it measured
			// 15% faster than nesting the three under one test.
			var gap uint64
			if i+2 < len(buf) && buf[i] < 0x80 {
				gap = uint64(buf[i])
				i++
			} else if i+2 < len(buf) && buf[i+1] < 0x80 {
				gap = uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7
				i += 2
			} else if i+2 < len(buf) && buf[i+2] < 0x80 {
				gap = uint64(buf[i]&0x7f) | uint64(buf[i+1]&0x7f)<<7 | uint64(buf[i+2])<<14
				i += 3
			} else {
				g, n := binary.Uvarint(buf[i:])
				if n <= 0 {
					return 0, j, errTruncatedAdjacency
				}
				// Checked before the add: a ten-byte gap would wrap
				// prev+gap back into range.
				if g > 0xFFFFFFFF {
					return 0, j, errNeighborOverflow
				}
				gap = g
				i += n
			}
			v := prev + gap
			if v >= limit {
				if v > 0xFFFFFFFF {
					return 0, j, errNeighborOverflow
				}
				return 0, j, errNeighborRange
			}
			nbrs[k] = VertexID(v)
			prev = v
		}
	}
	return i, 0, nil
}

// SkipCompressedAdjacency steps over the next n varints of buf — the ids
// of any run of lists, a list being its ids' varints back to back — and
// returns the bytes they take. It checks their framing as binary.Uvarint
// does: a varint that runs off the buffer, or past ten bytes, fails. The
// ids are never decoded, so they are not range-checked. A varint ends at
// a byte below 0x80, so it counts those eight bytes at a time, the next
// eight whatever the count, and looks closer only at the word that holds
// the n-th end and at a varint that spans ten bytes or more.
func SkipCompressedAdjacency(buf []byte, n int64) (int, error) {
	i, last := 0, -1 // last is the byte that ended the latest varint
	for n > 0 && i+8 <= len(buf) {
		ends := ^binary.LittleEndian.Uint64(buf[i:]) & 0x8080808080808080
		if ends == 0 {
			i += 8
			continue
		}
		// The varint the word's first end closes began after last.
		if first := i + bits.TrailingZeros64(ends)/8; first-last > 9 && (first-last > 10 || buf[first] > 1) {
			return 0, errTruncatedAdjacency
		}
		c := int64(bits.OnesCount64(ends))
		if c >= n {
			for ; n > 1; n-- {
				ends &= ends - 1
			}
			return i + bits.TrailingZeros64(ends)/8 + 1, nil
		}
		n -= c
		last = i + 7 - bits.LeadingZeros64(ends)/8
		i += 8
	}
	// The last few bytes: one varint at a time, from the first unended.
	i = last + 1
	for ; n > 0; n-- {
		_, k := binary.Uvarint(buf[i:])
		if k <= 0 {
			return 0, errTruncatedAdjacency
		}
		i += k
	}
	return i, nil
}
