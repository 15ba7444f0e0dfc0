package gen

import (
	"fmt"

	"repro/internal/graph"
)

// Config controls a generator invocation. Zero values select sensible
// defaults where noted.
type Config struct {
	// Seed drives all randomness; the same (generator, Config) pair always
	// yields the same graph.
	Seed uint64
	// Weighted attaches uniform [0,1) edge weights (needed by SSSP/SSWP).
	Weighted bool
	// DropSelfLoops removes self edges during construction.
	DropSelfLoops bool
}

func (c Config) builder(n int) *graph.Builder {
	b := graph.NewBuilder(n)
	if c.DropSelfLoops {
		b.DropSelfLoops()
	}
	return b
}

func (c Config) finish(b *graph.Builder) (*graph.Graph, error) {
	if c.Weighted {
		return b.BuildWeighted()
	}
	return b.Build()
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// vertices and approximately edgeFactor*2^scale directed edges, using the
// classic (a,b,c,d) quadrant probabilities. Graph500 uses
// (0.57, 0.19, 0.19, 0.05), which produces the heavy-tailed degree
// distributions typical of social and web graphs.
func RMAT(scale int, edgeFactor int, a, b, c float64, cfg Config) (*graph.Graph, error) {
	if scale < 0 || scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range [0,30]", scale)
	}
	bu := cfg.builder(1 << scale)
	if err := RMATInto(scale, edgeFactor, a, b, c, cfg.Seed, bu); err != nil {
		return nil, err
	}
	return cfg.finish(bu)
}

// RMATGraph500 generates an RMAT graph with the Graph500 reference
// parameters (0.57, 0.19, 0.19).
func RMATGraph500(scale, edgeFactor int, cfg Config) (*graph.Graph, error) {
	return RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, cfg)
}

// ErdosRenyi generates a G(n, m) uniform random graph with n vertices and
// m directed edges (pre-deduplication).
func ErdosRenyi(n int, m int, cfg Config) (*graph.Graph, error) {
	b := cfg.builder(maxInt(n, 0))
	if err := ErdosRenyiInto(n, m, cfg.Seed, b); err != nil {
		return nil, err
	}
	return cfg.finish(b)
}

// PreferentialAttachment generates a Barabási–Albert-style graph: vertices
// arrive one at a time and attach k out-edges to existing vertices chosen
// proportionally to their current degree. The result has a power-law
// in-degree tail, matching citation/web-link structure.
func PreferentialAttachment(n, k int, cfg Config) (*graph.Graph, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gen: PreferentialAttachment needs n,k > 0, got %d,%d", n, k)
	}
	if k >= n {
		k = n - 1
	}
	r := newRNG(cfg.Seed)
	b := cfg.builder(n)
	// targets is the repeated-endpoint list: sampling uniformly from it is
	// sampling proportionally to degree.
	targets := make([]graph.VertexID, 0, 2*n*k)
	// Seed clique among the first k+1 vertices.
	for i := 0; i <= k && i < n; i++ {
		for j := 0; j <= k && j < n; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j), r.float32())
			}
		}
		targets = append(targets, graph.VertexID(i))
	}
	for v := k + 1; v < n; v++ {
		for e := 0; e < k; e++ {
			dst := targets[r.intn(len(targets))]
			b.AddEdge(graph.VertexID(v), dst, r.float32())
			targets = append(targets, dst)
		}
		targets = append(targets, graph.VertexID(v))
	}
	return cfg.finish(b)
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest clockwise neighbors, with each edge
// rewired to a uniform destination with probability beta.
func WattsStrogatz(n, k int, beta float64, cfg Config) (*graph.Graph, error) {
	if n <= 0 || k <= 0 || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: WattsStrogatz invalid parameters n=%d k=%d beta=%v", n, k, beta)
	}
	r := newRNG(cfg.Seed)
	b := cfg.builder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			dst := (v + j) % n
			if r.float64() < beta {
				dst = r.intn(n)
			}
			b.AddEdge(graph.VertexID(v), graph.VertexID(dst), r.float32())
		}
	}
	return cfg.finish(b)
}

// SkewedStar generates a graph dominated by a few extreme hubs: `hubs`
// vertices each link to a large random subset of the remaining vertices,
// while non-hub vertices have few (possibly zero) out-edges. This mimics
// the wiki-Talk communication graph the paper highlights, whose topology
// makes NDP offload counterproductive: frontiers are dominated by
// low-degree vertices whose edge lists are cheaper to ship than their
// 16-byte updates.
func SkewedStar(n, hubs, hubDeg, leafDeg int, cfg Config) (*graph.Graph, error) {
	b := cfg.builder(maxInt(n, 0))
	if err := SkewedStarInto(n, hubs, hubDeg, leafDeg, cfg.Seed, b); err != nil {
		return nil, err
	}
	return cfg.finish(b)
}

// Grid generates a rows×cols 4-neighbor mesh with directed edges both
// ways. Meshes are the regular, low-skew counterpoint to natural graphs.
func Grid(rows, cols int, cfg Config) (*graph.Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("gen: Grid invalid dims %dx%d", rows, cols)
	}
	r := newRNG(cfg.Seed)
	n := rows * cols
	b := cfg.builder(n)
	id := func(i, j int) graph.VertexID { return graph.VertexID(i*cols + j) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i+1 < rows {
				w := r.float32()
				b.AddUndirected(id(i, j), id(i+1, j), w)
			}
			if j+1 < cols {
				w := r.float32()
				b.AddUndirected(id(i, j), id(i, j+1), w)
			}
		}
	}
	return cfg.finish(b)
}

// Community generates a planted-partition graph: n vertices split into
// `communities` equal groups, with each vertex receiving `degree` out-edges
// that stay inside its own group with probability pIn. Low cross-community
// edge fractions reward min-cut partitioning, which is what Figure 6's
// METIS curve demonstrates.
func Community(n, communities, degree int, pIn float64, cfg Config) (*graph.Graph, error) {
	b := cfg.builder(maxInt(n, 0))
	if err := communityWithHubsInto(n, communities, degree, pIn, 0, 0, cfg.Seed, b); err != nil {
		return nil, err
	}
	return cfg.finish(b)
}
