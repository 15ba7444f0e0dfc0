package gen

import (
	"fmt"

	"repro/internal/graph"
)

// EdgeSink consumes a generator's raw edge stream (pre-deduplication,
// self-loops included unless the sink drops them). *graph.Builder
// satisfies it for in-memory builds; store.SpillBuilder satisfies it for
// out-of-core builds — the same generator code feeds both, drawing the
// identical RNG sequence, so a streamed build is the same graph as an
// in-memory build at the same seed.
type EdgeSink interface {
	AddEdge(src, dst graph.VertexID, weight float32)
}

// RMATInto streams an RMAT edge list into sink; see RMAT for parameter
// semantics. The weight draw happens on every edge regardless of whether
// the sink keeps it, preserving the RNG sequence the seeded graphs pin.
func RMATInto(scale int, edgeFactor int, a, b, c float64, seed uint64, sink EdgeSink) error {
	if scale < 0 || scale > 30 {
		return fmt.Errorf("gen: RMAT scale %d out of range [0,30]", scale)
	}
	if a < 0 || b < 0 || c < 0 || a+b+c > 1 {
		return fmt.Errorf("gen: RMAT probabilities (%v,%v,%v) invalid", a, b, c)
	}
	n := 1 << scale
	m := edgeFactor * n
	r := newRNG(seed)
	ab := a + b
	abc := a + b + c
	for i := 0; i < m; i++ {
		var src, dst int
		for lvl := 0; lvl < scale; lvl++ {
			p := r.float64()
			switch {
			case p < a:
				// top-left: neither bit set
			case p < ab:
				dst |= 1 << lvl
			case p < abc:
				src |= 1 << lvl
			default:
				src |= 1 << lvl
				dst |= 1 << lvl
			}
		}
		sink.AddEdge(graph.VertexID(src), graph.VertexID(dst), r.float32())
	}
	return nil
}

// RMATGraph500Into streams RMAT with the Graph500 reference parameters.
func RMATGraph500Into(scale, edgeFactor int, seed uint64, sink EdgeSink) error {
	return RMATInto(scale, edgeFactor, 0.57, 0.19, 0.19, seed, sink)
}

// ErdosRenyiInto streams a G(n, m) uniform edge list into sink.
func ErdosRenyiInto(n, m int, seed uint64, sink EdgeSink) error {
	if n <= 0 {
		return fmt.Errorf("gen: ErdosRenyi needs n > 0, got %d", n)
	}
	r := newRNG(seed)
	for i := 0; i < m; i++ {
		sink.AddEdge(graph.VertexID(r.intn(n)), graph.VertexID(r.intn(n)), r.float32())
	}
	return nil
}

// SkewedStarInto streams the hub-dominated edge list into sink; see
// SkewedStar for topology semantics.
func SkewedStarInto(n, hubs, hubDeg, leafDeg int, seed uint64, sink EdgeSink) error {
	if n <= 0 || hubs <= 0 || hubs > n {
		return fmt.Errorf("gen: SkewedStar invalid n=%d hubs=%d", n, hubs)
	}
	r := newRNG(seed)
	for h := 0; h < hubs; h++ {
		for e := 0; e < hubDeg; e++ {
			sink.AddEdge(graph.VertexID(h), graph.VertexID(r.intn(n)), r.float32())
		}
	}
	for v := hubs; v < n; v++ {
		// Most leaves reply to a hub; a few have tiny fan-out of their own.
		d := 0
		if leafDeg > 0 {
			d = r.intn(leafDeg + 1)
		}
		for e := 0; e < d; e++ {
			// Bias ~half the leaf edges back toward hubs.
			var dst int
			if r.float64() < 0.5 {
				dst = r.intn(hubs)
			} else {
				dst = r.intn(n)
			}
			sink.AddEdge(graph.VertexID(v), graph.VertexID(dst), r.float32())
		}
	}
	return nil
}

// communityWithHubsInto streams a planted-partition edge list (see
// Community for its topology) and then layers `hubs` high-degree vertices
// over it, approximating natural graphs that have both locality and a
// heavy degree tail. Hub vertices are spread uniformly across the id
// space so that they land in different partitions; with no hubs the
// overlay draws nothing.
func communityWithHubsInto(n, communities, degree int, pIn float64, hubs, hubDeg int, seed uint64, sink EdgeSink) error {
	if n <= 0 || communities <= 0 || communities > n || pIn < 0 || pIn > 1 {
		return fmt.Errorf("gen: Community invalid n=%d c=%d pIn=%v", n, communities, pIn)
	}
	r := newRNG(seed)
	size := n / communities
	for v := 0; v < n; v++ {
		c := v / size
		if c >= communities {
			c = communities - 1
		}
		lo := c * size
		hi := lo + size
		if c == communities-1 {
			hi = n
		}
		for e := 0; e < degree; e++ {
			var dst int
			if r.float64() < pIn {
				dst = lo + r.intn(hi-lo)
			} else {
				dst = r.intn(n)
			}
			sink.AddEdge(graph.VertexID(v), graph.VertexID(dst), r.float32())
		}
	}
	if hubs > 0 && hubDeg > 0 {
		stride := n / hubs
		if stride == 0 {
			stride = 1
		}
		for h := 0; h < hubs; h++ {
			hub := graph.VertexID((h * stride) % n)
			for e := 0; e < hubDeg; e++ {
				sink.AddEdge(hub, graph.VertexID(r.intn(n)), r.float32())
			}
		}
	}
	return nil
}
