package partition

import (
	"math"

	"repro/internal/graph"
)

// LDG is the Linear Deterministic Greedy streaming partitioner: vertices
// arrive in id order and each is placed in the part with the most
// already-placed neighbors, discounted by how full that part is
// (score = |N(v) ∩ part| · (1 - size/capacity)). One pass, O(E), no
// global view — the standard choice when graphs are too large to
// partition offline, and a realistic middle ground between hash and the
// multilevel partitioner for the Figure 6 trade-off.
type LDG struct{}

// ldgSlack is the per-part capacity multiplier over the perfect n/k
// balance: 1.1.
const ldgSlack = 1.1

// Name implements Partitioner.
func (LDG) Name() string { return "ldg" }

// Partition implements Partitioner.
func (LDG) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkEdges(g, k, "ldg"); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	capacity := int64(math.Ceil(ldgSlack * float64(n) / float64(k)))
	if capacity < 1 {
		capacity = 1
	}

	parts := make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	sizes := make([]int64, k)
	// Neighbor counts per part for the vertex being placed, with a
	// touched-list reset to keep the pass O(E).
	counts := make([]int64, k)
	touched := make([]int32, 0, 16)

	// Undirected neighborhoods score best; the transpose covers in-edges.
	tr := g.Transpose()

	for v := 0; v < n; v++ {
		touched = touched[:0]
		tally := func(nbrs []graph.VertexID) {
			for _, u := range nbrs {
				p := parts[u]
				if p < 0 {
					continue // not placed yet
				}
				if counts[p] == 0 {
					touched = append(touched, p)
				}
				counts[p]++
			}
		}
		tally(g.Neighbors(graph.VertexID(v)))
		tally(tr.Neighbors(graph.VertexID(v)))

		best := int32(-1)
		bestScore := -1.0
		for _, p := range touched {
			if sizes[p] >= capacity {
				continue
			}
			score := float64(counts[p]) * (1 - float64(sizes[p])/float64(capacity))
			if score > bestScore || (score == bestScore && best >= 0 && sizes[p] < sizes[best]) {
				bestScore, best = score, p
			}
		}
		for _, p := range touched {
			counts[p] = 0
		}
		if best < 0 || bestScore <= 0 {
			// No placed neighbors (or all candidate parts full): place in
			// the least-loaded part.
			best = 0
			for p := int32(1); p < int32(k); p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
		}
		parts[v] = best
		sizes[best]++
	}
	return &Assignment{Parts: parts, K: k}, nil
}
