package gen

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Dataset is a named synthetic stand-in for one of the real-world graphs
// in the paper's evaluation. RealVertices/RealEdges document the original
// graph; Generate produces the stand-in at a size scaled by `scale`
// (scale=1 is the default laptop-friendly size, ~1000x smaller than the
// original, preserving the edge:vertex ratio and skew profile).
type Dataset struct {
	Name         string
	Description  string
	RealVertices int64
	RealEdges    int64
	// BaseVertices is the stand-in's vertex count at scale 1.
	BaseVertices int
	// Vertices returns the stand-in's exact vertex count at the given
	// scale — the count a streaming sink must be sized for.
	Vertices func(scale float64) int
	// Stream emits the stand-in's raw edge stream into sink. It is the
	// one definition of the stand-in: Generate feeds it an in-memory
	// builder, an out-of-core build a spilling one, so both describe the
	// same graph at the same (scale, seed).
	Stream func(scale float64, seed uint64, sink EdgeSink) error
}

// Generate builds the stand-in in memory at the given scale.
func (d Dataset) Generate(scale float64, cfg Config) (*graph.Graph, error) {
	b := cfg.builder(d.Vertices(scale))
	if err := d.Stream(scale, cfg.Seed, b); err != nil {
		return nil, err
	}
	return cfg.finish(b)
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 16 {
		n = 16
	}
	return n
}

// Twitter7 stands in for the Twitter7 follower graph (41M vertices, 1.4B
// edges, mean degree ~35, extreme power-law skew). Generated as RMAT with
// Graph500 parameters, which reproduces the hub-dominated degree tail.
var Twitter7 = Dataset{
	Name:         "twitter7",
	Description:  "social follower graph stand-in (RMAT, heavy power-law, mean deg ~35)",
	RealVertices: 41_652_230,
	RealEdges:    1_468_365_182,
	BaseVertices: 1 << 15,
	Vertices:     func(scale float64) int { return 1 << twitter7Scale(scale) },
	Stream: func(scale float64, seed uint64, sink EdgeSink) error {
		return RMATGraph500Into(twitter7Scale(scale), 35, seed, sink)
	},
}

// twitter7Scale rounds the scaled vertex count up to RMAT's power of two.
func twitter7Scale(scale float64) int {
	n := scaled(1<<15, scale)
	s := 0
	for (1 << s) < n {
		s++
	}
	return s
}

// UK2005 stands in for the UK-2005 web crawl (39M vertices, 936M edges,
// mean degree ~24, strong host-level link locality). Generated as a
// planted-community graph with a hub overlay: web graphs cluster tightly
// by site, which is what makes min-cut partitioning effective on them.
var UK2005 = Dataset{
	Name:         "uk-2005",
	Description:  "web crawl stand-in (community-clustered, hub overlay, mean deg ~24)",
	RealVertices: 39_459_925,
	RealEdges:    936_364_282,
	BaseVertices: 1 << 15,
	Vertices:     func(scale float64) int { return scaled(1<<15, scale) },
	Stream: func(scale float64, seed uint64, sink EdgeSink) error {
		n := scaled(1<<15, scale)
		return communityWithHubsInto(n, maxInt(8, n/512), 22, 0.92, maxInt(4, n/4096), n/16, seed, sink)
	},
}

// ComLiveJournal stands in for com-LiveJournal (3M vertices, 69M edges,
// mean degree ~17, pronounced community structure). This is the graph the
// paper uses for Figure 6, where METIS partitioning sharply reduces
// cross-partition partial updates — so community structure is the property
// the stand-in must reproduce.
var ComLiveJournal = Dataset{
	Name:         "com-livejournal",
	Description:  "social community graph stand-in (planted partitions, mean deg ~17)",
	RealVertices: 3_997_962,
	RealEdges:    69_362_378,
	BaseVertices: 1 << 14,
	Vertices:     func(scale float64) int { return scaled(1<<14, scale) },
	Stream: func(scale float64, seed uint64, sink EdgeSink) error {
		n := scaled(1<<14, scale)
		return communityWithHubsInto(n, maxInt(8, n/256), 17, 0.85, maxInt(2, n/8192), n/32, seed, sink)
	},
}

// WikiTalk stands in for wiki-Talk (2.4M vertices, 5M edges, mean degree
// ~2). Its topology — a handful of extreme hubs, a long tail of vertices
// with zero or one out-edge — is the case where the paper shows NDP
// offload *increasing* data movement: 16-byte partial updates outweigh
// 8-byte edge fetches when frontier vertices have tiny fan-out.
var WikiTalk = Dataset{
	Name:         "wiki-talk",
	Description:  "communication graph stand-in (extreme hubs, mean deg ~2)",
	RealVertices: 2_394_385,
	RealEdges:    5_021_410,
	BaseVertices: 1 << 15,
	Vertices:     func(scale float64) int { return scaled(1<<15, scale) },
	Stream: func(scale float64, seed uint64, sink EdgeSink) error {
		n := scaled(1<<15, scale)
		return SkewedStarInto(n, maxInt(4, n/512), n/24, 3, seed, sink)
	},
}

// Datasets lists all named stand-ins in a stable order.
func Datasets() []Dataset {
	return []Dataset{Twitter7, UK2005, ComLiveJournal, WikiTalk}
}

// ByName returns the dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, 0, 4)
	for _, d := range Datasets() {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q (have %v)", name, names)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
