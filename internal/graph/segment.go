package graph

import "math/bits"

// Segment is a pinned run of adjacency: the out-edges of the contiguous
// vertex range [First, End), valid until Release. It is the unit in
// which an adjacency source lends edges to a traversal — a whole
// in-memory CSR is one segment that is always resident, an out-of-core
// container hands out one decompressed segment at a time.
//
// Vertex v's neighbors are Edges[lo-Base:hi-Base] for lo, hi the CSR
// edge range of v (Graph.EdgeRange on the vertex side), with Weights
// parallel to Edges or nil when the graph is unweighted. The slices
// alias the lender's storage and are read-only.
//
// The zero Segment covers no vertex and releases nothing, so a traversal
// can start from it and release unconditionally on every path. Segments
// are values; copy freely but Release exactly once per pin. The methods
// take pointers only so that a per-vertex Contains on a struct field does
// not copy the handle.
type Segment struct {
	First, End VertexID
	// Base is the CSR index of Edges[0], i.e. offsets[First].
	Base    int64
	Edges   []VertexID
	Weights []float32

	// Owner, when non-nil, holds pin Frame on behalf of this handle.
	Owner Unpinner
	Frame int32
}

// Unpinner is the lender's side of Segment.Release.
type Unpinner interface {
	Unpin(frame int32)
}

// Contains reports whether the segment covers v.
func (s *Segment) Contains(v VertexID) bool { return v >= s.First && v < s.End }

// Release returns the pin to its lender; a no-op for segments nobody
// holds (the zero Segment, an in-memory graph's).
func (s *Segment) Release() {
	if s.Owner != nil {
		s.Owner.Unpin(s.Frame)
	}
}

// SweepVictim picks which resident segment to drop so that segment at
// can be loaded, for traffic that pins segments in ascending order and
// comes back to one only after a full cycle: idle has bit i set for each
// candidate i (never at itself), and the victim is the candidate that
// sweep, continuing upward from at and wrapping, reaches last — the
// greatest below at, else the greatest of all. It returns -1 when there
// is no candidate. A pure function of its arguments that scans a word at
// a time and allocates nothing, so a tier (internal/store) and the model
// of that tier (internal/sim) share it.
func SweepVictim(idle []uint64, at int32) int32 {
	w := int(at >> 6)
	if below := idle[w] & (1<<(uint(at)&63) - 1); below != 0 {
		return int32(w<<6 + bits.Len64(below) - 1)
	}
	for j := w - 1; j >= 0; j-- {
		if idle[j] != 0 {
			return int32(j<<6 + bits.Len64(idle[j]) - 1)
		}
	}
	for j := len(idle) - 1; j >= w; j-- {
		if idle[j] != 0 {
			return int32(j<<6 + bits.Len64(idle[j]) - 1)
		}
	}
	return -1
}
