package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarizes the structural properties of a graph that drive the
// data-movement trade-offs studied in the paper: scale, degree skew, and
// the balance between vertex-list and edge-list footprints.
type Stats struct {
	NumVertices int
	NumEdges    int64
	MinOutDeg   int64
	MaxOutDeg   int64
	MeanOutDeg  float64
	// P50/P90/P99 out-degree percentiles capture skew: natural graphs have
	// P99 orders of magnitude above the median.
	P50OutDeg, P90OutDeg, P99OutDeg int64
	// GiniOutDeg is the Gini coefficient of the out-degree distribution in
	// [0,1]; 0 is perfectly regular, values near 1 are extremely skewed.
	GiniOutDeg float64
	// ZeroOutDeg counts sink vertices (no outgoing edges).
	ZeroOutDeg int
	// EdgeListBytes and VertexListBytes estimate the CSR footprint split
	// the paper's Figure 1 relies on (edge list in far memory, vertex list
	// host-local): 4 B per edge destination plus 8 B per offset entry, and
	// 16 B per vertex property record.
	EdgeListBytes   int64
	VertexListBytes int64
}

// ComputeStats scans the graph once and derives Stats.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{
		NumVertices: n,
		NumEdges:    g.NumEdges(),
		MinOutDeg:   math.MaxInt64,
	}
	if n == 0 {
		s.MinOutDeg = 0
		return s
	}
	degs := make([]int64, n)
	var sum int64
	for v := 0; v < n; v++ {
		d := g.OutDegree(VertexID(v))
		degs[v] = d
		sum += d
		if d < s.MinOutDeg {
			s.MinOutDeg = d
		}
		if d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d == 0 {
			s.ZeroOutDeg++
		}
	}
	s.MeanOutDeg = float64(sum) / float64(n)
	sort.Slice(degs, func(i, j int) bool { return degs[i] < degs[j] })
	s.P50OutDeg = percentile(degs, 0.50)
	s.P90OutDeg = percentile(degs, 0.90)
	s.P99OutDeg = percentile(degs, 0.99)
	s.GiniOutDeg = gini(degs, sum)
	s.EdgeListBytes = s.NumEdges*4 + int64(n+1)*8
	s.VertexListBytes = int64(n) * 16
	return s
}

// percentile returns the p-quantile of a sorted slice using the
// nearest-rank method.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// gini computes the Gini coefficient of a sorted non-negative sample.
func gini(sorted []int64, sum int64) float64 {
	n := len(sorted)
	if n == 0 || sum == 0 {
		return 0
	}
	// G = (2*sum_i i*x_i)/(n*sum_x) - (n+1)/n with 1-based i over sorted x.
	var weighted float64
	for i, x := range sorted {
		weighted += float64(i+1) * float64(x)
	}
	return 2*weighted/(float64(n)*float64(sum)) - float64(n+1)/float64(n)
}

// String renders the stats as a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices=%d edges=%d meanDeg=%.2f\n", s.NumVertices, s.NumEdges, s.MeanOutDeg)
	fmt.Fprintf(&b, "outDeg min=%d p50=%d p90=%d p99=%d max=%d gini=%.3f zeros=%d\n",
		s.MinOutDeg, s.P50OutDeg, s.P90OutDeg, s.P99OutDeg, s.MaxOutDeg, s.GiniOutDeg, s.ZeroOutDeg)
	fmt.Fprintf(&b, "edgeList=%s vertexList=%s (ratio %.1fx)",
		FormatBytes(s.EdgeListBytes), FormatBytes(s.VertexListBytes),
		float64(s.EdgeListBytes)/math.Max(1, float64(s.VertexListBytes)))
	return b.String()
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
