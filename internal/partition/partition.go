// Package partition assigns graph vertices (and thereby their outgoing
// edge lists) to the nodes of a memory pool.
//
// Partition quality is the lever behind the paper's Figure 6: hash
// partitioning ignores topology and produces a partial update per
// (destination, partition) pair for almost every cross edge, while min-cut
// partitioning (the paper uses METIS; this package implements the same
// multilevel scheme) keeps each destination's in-edges concentrated on few
// memory nodes and so sharply reduces the partial-update volume that NDP
// offload must ship to the compute nodes.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Assignment maps every vertex to one of K parts. The edge list of vertex
// v lives on the memory node owning v (1D source partitioning, as in the
// paper's Figure 1: edge lists partitioned across the memory pool).
type Assignment struct {
	Parts []int32
	K     int
}

// Partitioner produces a K-way assignment for a graph.
type Partitioner interface {
	// Name identifies the strategy in reports.
	Name() string
	// Partition assigns every vertex of g to one of k parts.
	Partition(g *graph.Graph, k int) (*Assignment, error)
}

// Validate checks that the assignment covers exactly the graph's vertices
// and uses only parts in [0, K).
func (a *Assignment) Validate(g *graph.Graph) error {
	if a.K <= 0 {
		return fmt.Errorf("partition: K = %d, want > 0", a.K)
	}
	if len(a.Parts) != g.NumVertices() {
		return fmt.Errorf("partition: assignment covers %d vertices, graph has %d", len(a.Parts), g.NumVertices())
	}
	for v, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d, out of [0,%d)", v, p, a.K)
		}
	}
	return nil
}

// Part returns the part owning vertex v.
func (a *Assignment) Part(v graph.VertexID) int32 { return a.Parts[v] }

// Sizes returns the number of vertices per part.
func (a *Assignment) Sizes() []int64 {
	sizes := make([]int64, a.K)
	for _, p := range a.Parts {
		sizes[p]++
	}
	return sizes
}

// EdgeSizes returns the number of edges stored per part (out-edges of the
// part's vertices).
func (a *Assignment) EdgeSizes(g *graph.Graph) []int64 {
	sizes := make([]int64, a.K)
	for v := 0; v < g.NumVertices(); v++ {
		sizes[a.Parts[v]] += g.OutDegree(graph.VertexID(v))
	}
	return sizes
}

// Quality summarizes the partition metrics the runtime's offload decisions
// depend on.
type Quality struct {
	K int
	// EdgeCut counts directed edges whose endpoints live in different parts.
	EdgeCut int64
	// CutFraction is EdgeCut / NumEdges.
	CutFraction float64
	// ReplicationFactor is the Gluon-style average number of copies
	// (master + mirrors) per vertex: a part holds a mirror of v when it
	// stores at least one edge pointing at v but does not own v.
	ReplicationFactor float64
	// Mirrors is the total mirror count across all parts.
	Mirrors int64
	// VertexImbalance is max part vertex count over the mean.
	VertexImbalance float64
	// EdgeImbalance is max part edge count over the mean.
	EdgeImbalance float64
}

// Evaluate computes Quality for an assignment.
func Evaluate(g *graph.Graph, a *Assignment) Quality {
	q := Quality{K: a.K}
	n := g.NumVertices()
	if n == 0 {
		return q
	}
	// Mirror detection: for each vertex v, the set of parts with an edge
	// into v, other than owner(v). We scan edges grouped by source (CSR
	// order) and mark (part, dst) pairs with a per-destination bitmask for
	// small K, or a last-seen stamp array otherwise.
	mirrorsOf := make(map[int64]struct{}) // key: dst*K + part
	var cut int64
	for v := 0; v < n; v++ {
		src := graph.VertexID(v)
		sp := a.Parts[src]
		for _, dst := range g.Neighbors(src) {
			dp := a.Parts[dst]
			if sp != dp {
				cut++
			}
			if sp != a.Parts[dst] {
				mirrorsOf[int64(dst)*int64(a.K)+int64(sp)] = struct{}{}
			}
		}
	}
	q.EdgeCut = cut
	if m := g.NumEdges(); m > 0 {
		q.CutFraction = float64(cut) / float64(m)
	}
	q.Mirrors = int64(len(mirrorsOf))
	q.ReplicationFactor = 1 + float64(q.Mirrors)/float64(n)
	sizes := a.Sizes()
	esizes := a.EdgeSizes(g)
	q.VertexImbalance = imbalance(sizes)
	q.EdgeImbalance = imbalance(esizes)
	return q
}

func imbalance(sizes []int64) float64 {
	if len(sizes) == 0 {
		return 0
	}
	var sum, max int64
	for _, s := range sizes {
		sum += s
		if s > max {
			max = s
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(sizes))
	return float64(max) / mean
}

// String renders the quality metrics compactly.
func (q Quality) String() string {
	return fmt.Sprintf("k=%d cut=%d (%.1f%%) repl=%.2f mirrors=%d vImb=%.2f eImb=%.2f",
		q.K, q.EdgeCut, 100*q.CutFraction, q.ReplicationFactor, q.Mirrors, q.VertexImbalance, q.EdgeImbalance)
}

// Hash partitions vertices by a multiplicative hash of their id: the
// topology-oblivious baseline. Deterministic.
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	parts := make([]int32, g.NumVertices())
	for v := range parts {
		// Fibonacci hashing spreads consecutive ids uniformly.
		h := uint64(v) * 0x9e3779b97f4a7c15
		parts[v] = int32(h % uint64(k))
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// Range partitions vertices into contiguous id ranges with equal vertex
// counts. Preserves id locality (good when ids encode crawl/community
// order) but can be badly edge-imbalanced on skewed graphs.
type Range struct{}

// Name implements Partitioner.
func (Range) Name() string { return "range" }

// Partition implements Partitioner.
func (Range) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	parts := make([]int32, n)
	for v := 0; v < n; v++ {
		parts[v] = int32(int64(v) * int64(k) / int64(n))
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// Chunk partitions vertices into contiguous id ranges with approximately
// equal *edge* counts, the standard fix for Range's edge imbalance on
// skewed graphs.
type Chunk struct{}

// Name implements Partitioner.
func (Chunk) Name() string { return "chunk" }

// Partition implements Partitioner.
func (Chunk) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	m := g.NumEdges()
	parts := make([]int32, n)
	target := float64(m) / float64(k)
	part := int32(0)
	var acc int64
	for v := 0; v < n; v++ {
		parts[v] = part
		acc += g.OutDegree(graph.VertexID(v))
		// Advance to the next part once this one holds its share, keeping
		// enough vertices for the remaining parts.
		if float64(acc) >= target*float64(part+1) && int(part) < k-1 && n-v-1 >= k-int(part)-1 {
			part++
		}
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// checkEdges is checkK for the partitioners that read edges, not degrees.
func checkEdges(g *graph.Graph, k int, name string) error {
	if g.VertexView() {
		return fmt.Errorf("partition: %s needs the edge list in RAM: %w", name, graph.ErrVertexView)
	}
	return checkK(g, k)
}

func checkK(g *graph.Graph, k int) error {
	if k <= 0 {
		return fmt.Errorf("partition: k = %d, want > 0", k)
	}
	if g.NumVertices() > 0 && k > g.NumVertices() {
		return fmt.Errorf("partition: k = %d exceeds vertex count %d", k, g.NumVertices())
	}
	return nil
}
