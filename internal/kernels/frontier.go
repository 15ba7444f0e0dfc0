package kernels

import "repro/internal/graph"

// Frontier is a vertex set with O(1) activation, deduplication, and
// ordered iteration. Engines share it. Membership is a bitset — one bit
// per vertex, so the pull direction's per-edge membership probes touch
// 8× less memory than a byte mask — alongside an activation-order list
// that makes iteration proportional to the active count.
type Frontier struct {
	words []uint64
	n     int
	list  []graph.VertexID
	all   bool
}

// NewFrontier returns an empty frontier over n vertices.
func NewFrontier(n int) *Frontier {
	return &Frontier{words: make([]uint64, (n+63)/64), n: n}
}

// Activate adds v to the frontier (idempotent).
func (f *Frontier) Activate(v graph.VertexID) {
	w, b := v>>6, uint64(1)<<(v&63)
	if f.all || f.words[w]&b != 0 {
		return
	}
	f.words[w] |= b
	f.list = append(f.list, v)
}

// ActivateAll marks every vertex active without materializing the list.
func (f *Frontier) ActivateAll() { f.all = true }

// Reset returns the frontier to empty without releasing its storage, so
// engines can double-buffer two frontiers instead of allocating one per
// iteration. Member bits are cleared through the activation list —
// Activate is the only writer of the bitset, so the list covers every set
// bit — making a recycled frontier behave exactly like a fresh
// NewFrontier of the same size.
func (f *Frontier) Reset() {
	for _, v := range f.list {
		f.words[v>>6] &^= uint64(1) << (v & 63)
	}
	f.list = f.list[:0]
	f.all = false
}

// Contains reports whether v is active.
func (f *Frontier) Contains(v graph.VertexID) bool {
	return f.all || f.words[v>>6]&(uint64(1)<<(v&63)) != 0
}

// Count returns the number of active vertices.
func (f *Frontier) Count() int64 {
	if f.all {
		return int64(f.n)
	}
	return int64(len(f.list))
}

// ForEach visits the active vertices in ascending order when all vertices
// are active, or in activation order otherwise.
func (f *Frontier) ForEach(fn func(v graph.VertexID)) {
	if f.all {
		for v := 0; v < f.n; v++ {
			fn(graph.VertexID(v))
		}
		return
	}
	for _, v := range f.list {
		fn(v)
	}
}
