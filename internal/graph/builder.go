package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates edges and constructs a validated CSR Graph.
//
// The builder tolerates duplicate edges, self-loops (kept by default,
// removable via DropSelfLoops), and unsorted input. Duplicates are
// deduplicated after an unstable sort by (src, dst): the weight kept is
// that of the duplicate the sort puts first, which is deterministic for a
// given input and Go release but not necessarily the first one added
// (store.SpillBuilder keeps the first one added). It is not safe for
// concurrent use.
type Builder struct {
	numVertices   int
	edges         []Edge
	dropSelfLoops bool
	keepParallel  bool
}

// NewBuilder returns a builder for a graph with n vertices (ids 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{numVertices: n}
}

// DropSelfLoops configures the builder to discard edges with Src == Dst.
func (b *Builder) DropSelfLoops() *Builder {
	b.dropSelfLoops = true
	return b
}

// KeepParallelEdges configures the builder to keep duplicate (src,dst)
// pairs rather than deduplicating them. Parallel edges matter for weighted
// multigraph workloads.
func (b *Builder) KeepParallelEdges() *Builder {
	b.keepParallel = true
	return b
}

// AddEdge appends a directed edge. Endpoints outside [0, n) are rejected at
// Build time.
func (b *Builder) AddEdge(src, dst VertexID, weight float32) {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: weight})
}

// AddEdges appends a batch of directed edges.
func (b *Builder) AddEdges(edges []Edge) {
	b.edges = append(b.edges, edges...)
}

// AddUndirected appends both directions of an edge with the same weight.
func (b *Builder) AddUndirected(u, v VertexID, weight float32) {
	b.AddEdge(u, v, weight)
	b.AddEdge(v, u, weight)
}

// NumPendingEdges returns the number of edges added so far (pre-dedup).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build constructs an unweighted CSR graph.
func (b *Builder) Build() (*Graph, error) { return b.build(false) }

// BuildWeighted constructs a weighted CSR graph.
func (b *Builder) BuildWeighted() (*Graph, error) { return b.build(true) }

func (b *Builder) build(weighted bool) (*Graph, error) {
	n := b.numVertices
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for i, e := range b.edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge %d (%d -> %d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	work := b.edges
	if b.dropSelfLoops {
		work = make([]Edge, 0, len(b.edges))
		for _, e := range b.edges {
			if e.Src != e.Dst {
				work = append(work, e)
			}
		}
	} else if !b.keepParallel {
		// Sorting mutates; copy so the builder can be reused.
		work = append([]Edge(nil), b.edges...)
	}
	// The permutation decides which duplicate's weight survives, so the
	// sort must stay this one (pdqsort, as sort.Slice): a stable sort keeps
	// other weights. TestBuilderOutputPinned holds it.
	slices.SortFunc(work, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	if !b.keepParallel {
		work = dedupEdges(work)
	}
	offsets := make([]int64, n+1)
	for _, e := range work {
		offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]VertexID, len(work))
	var weights []float32
	if weighted {
		weights = make([]float32, len(work))
	}
	for i, e := range work {
		edges[i] = e.Dst
		if weighted {
			weights[i] = e.Weight
		}
	}
	return NewCSR(offsets, edges, weights)
}

// dedupEdges removes duplicate (src,dst) pairs from a sorted edge slice,
// keeping the first in sorted order (and therefore its weight).
func dedupEdges(sorted []Edge) []Edge {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, e := range sorted[1:] {
		last := out[len(out)-1]
		if e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
	}
	return out
}

// FromEdges is a convenience constructor: build an unweighted graph with n
// vertices directly from an edge slice.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// FromEdgesWeighted builds a weighted graph with n vertices from edges.
func FromEdgesWeighted(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.BuildWeighted()
}
