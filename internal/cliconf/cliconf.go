// Package cliconf is the shared CLI flag/config layer for the run-style
// commands (ndprun, ndpbench, ndpverify, ndpserve): one place that maps
// the user-facing names — datasets, kernels, architectures, partitioners,
// offload policies, fault plans — to constructed objects, so every
// command (and the ndpserve job API, which accepts the same names over
// JSON) resolves them identically.
//
// Flags are grouped into registerable structs (GraphFlags, EngineFlags,
// FaultFlags) so each command picks the groups it needs; the name
// resolvers (MakeKernel, MakePartitioner, MakePolicy, ParseArch,
// ParseCrashSpec, LoadGraph) are also usable directly on config values
// that arrived by other routes, e.g. an HTTP job submission.
package cliconf

import (
	"flag"
	"fmt"
	goruntime "runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/store"
)

// GraphFlags selects the input graph: a named dataset stand-in at a
// scale, or a file.
type GraphFlags struct {
	Dataset string
	File    string
	Scale   float64
	Seed    uint64
}

// Register installs the group on fs with the standard names.
func (f *GraphFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Dataset, "dataset", "", "dataset stand-in: twitter7 | uk-2005 | com-livejournal | wiki-talk")
	fs.StringVar(&f.File, "graph", "", "graph file (.gcsr, .gcsr2 container, or edge list) instead of -dataset")
	fs.Float64Var(&f.Scale, "scale", 0.5, "dataset scale factor")
	fs.Uint64Var(&f.Seed, "seed", 42, "generation/partitioning seed")
}

// Load materializes the selected graph.
func (f *GraphFlags) Load() (*graph.Graph, error) {
	return LoadGraph(f.Dataset, f.File, f.Scale, f.Seed)
}

// Label names the graph source for report titles.
func (f *GraphFlags) Label() string {
	if f.File != "" {
		return f.File
	}
	return f.Dataset
}

// LoadGraph loads a graph from a file (.gcsr binary, .gcsr2 out-of-core
// container — materialized into RAM — or edge list) or generates a
// dataset stand-in at the given scale.
func LoadGraph(dataset, file string, scale float64, seed uint64) (*graph.Graph, error) {
	switch {
	case file != "":
		if strings.HasSuffix(file, ".gcsr2") {
			return materializeContainer(file)
		}
		if strings.HasSuffix(file, ".gcsr") {
			return gio.LoadBinaryFile(file)
		}
		return gio.LoadEdgeListFile(file)
	case dataset != "":
		d, err := gen.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return d.Generate(scale, gen.Config{Seed: seed, Weighted: true, DropSelfLoops: true})
	default:
		return nil, fmt.Errorf("one of -dataset or -graph is required")
	}
}

// materializeContainer decompresses a gcsr2 container fully into RAM —
// the route for commands that need an in-memory CSR from an
// out-of-core artifact (ndprun -store runs the container in place
// instead).
func materializeContainer(path string) (*graph.Graph, error) {
	st, err := store.OpenFile(path, store.Options{})
	if err != nil {
		return nil, err
	}
	g, err := st.Materialize()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// EngineFlags configures the execution: kernel, architecture, topology
// width, partitioning, offload policy, and the simulator knobs.
type EngineFlags struct {
	Kernel      string
	Arch        string
	Partitions  int
	Computes    int
	Partitioner string
	Policy      string
	Aggregate   bool
	Device      string
	CacheFrac   float64
	SwitchBuf   int64
	PRIters     int
	Workers     int
	Direction   string
	Alpha       float64
	Beta        float64
}

// Register installs the group on fs with the standard names.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Kernel, "kernel", "pagerank", "kernel: pagerank | pagerank-delta | ppr | cc | bfs | sssp | sswp | indegree | reach")
	fs.StringVar(&f.Arch, "arch", "disaggregated-ndp", "architecture: distributed | distributed-ndp | disaggregated | disaggregated-ndp | all | serial (in-process kernel engine, no simulation)")
	fs.IntVar(&f.Partitions, "partitions", 8, "memory nodes / partitions")
	fs.IntVar(&f.Computes, "computes", 2, "compute nodes")
	fs.StringVar(&f.Partitioner, "partitioner", "hash", "hash | range | chunk | ldg | multilevel")
	fs.StringVar(&f.Policy, "policy", "always", "offload policy: always | never | threshold | heuristic | oracle | mixed-oracle | partition-heuristic")
	fs.BoolVar(&f.Aggregate, "aggregate", false, "enable in-network aggregation")
	fs.StringVar(&f.Device, "device", "CXL-CMS", "memory-node NDP device (see ndpbench table1)")
	fs.Float64Var(&f.CacheFrac, "cache", 0, "host edge-cache fraction of the edge list (disaggregated only)")
	fs.Int64Var(&f.SwitchBuf, "switchbuffer", 0, "switch aggregation buffer entries (0 = unlimited)")
	fs.IntVar(&f.PRIters, "priters", 10, "PageRank iterations")
	fs.IntVar(&f.Workers, "workers", 0, "simulator worker pool size (0 = GOMAXPROCS); results are identical for every setting")
	fs.StringVar(&f.Direction, "direction", "auto", "kernel engine traversal direction: auto | push | pull (pull needs a gather-capable kernel)")
	fs.Float64Var(&f.Alpha, "alpha", 0, "direction switch: pull when frontier edges > remaining/alpha (0 = default 14)")
	fs.Float64Var(&f.Beta, "beta", 0, "direction switch: pull only when frontier > vertices/beta (0 = default 24)")
}

// ParseDirection maps a direction flag value to the kernel engine enum.
func ParseDirection(name string) (kernels.Direction, error) {
	switch name {
	case "auto", "":
		return kernels.DirectionAuto, nil
	case "push":
		return kernels.DirectionPush, nil
	case "pull":
		return kernels.DirectionPull, nil
	default:
		return 0, fmt.Errorf("unknown direction %q (want auto, push, or pull)", name)
	}
}

// EngineOptions resolves the flag group's kernel-engine options
// (direction mode, switch thresholds, worker pool width).
func (f *EngineFlags) EngineOptions() (kernels.Options, error) {
	dir, err := ParseDirection(f.Direction)
	if err != nil {
		return kernels.Options{}, err
	}
	return kernels.Options{
		Workers:   f.Workers,
		Direction: dir,
		Alpha:     f.Alpha,
		Beta:      f.Beta,
	}, nil
}

// MakeKernel resolves the flag group's kernel.
func (f *EngineFlags) MakeKernel() (kernels.Kernel, error) {
	return MakeKernel(f.Kernel, f.PRIters)
}

// MakePartitioner resolves the flag group's partitioner with seed.
func (f *EngineFlags) MakePartitioner(seed uint64) (partition.Partitioner, error) {
	return MakePartitioner(f.Partitioner, seed)
}

// MakePolicy resolves the flag group's offload policy.
func (f *EngineFlags) MakePolicy() (sim.OffloadPolicy, error) {
	return MakePolicy(f.Policy)
}

// MakeKernel builds a kernel by name; "pagerank"/"pr" honor the
// PageRank iteration budget, every other name resolves through the
// kernels registry.
func MakeKernel(name string, priters int) (kernels.Kernel, error) {
	if name == "pagerank" || name == "pr" {
		return kernels.NewPageRank(priters, kernels.DefaultDamping), nil
	}
	return kernels.ByName(name)
}

// MakePartitioner builds a partitioner by name through the partition
// registry (the same resolution the verify harness uses).
func MakePartitioner(name string, seed uint64) (partition.Partitioner, error) {
	return partition.ByName(name, seed)
}

// MakePolicy builds an offload policy by name.
func MakePolicy(name string) (sim.OffloadPolicy, error) {
	switch name {
	case "always":
		return sim.AlwaysOffload{}, nil
	case "never":
		return sim.NeverOffload{}, nil
	case "threshold":
		return runtime.ThresholdPolicy{}, nil
	case "heuristic":
		return runtime.Heuristic{}, nil
	case "oracle":
		return runtime.Oracle{}, nil
	case "mixed-oracle":
		return runtime.MixedOracle{}, nil
	case "partition-heuristic":
		return runtime.PartitionHeuristic{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want always, never, threshold, heuristic, oracle, mixed-oracle, or partition-heuristic)", name)
	}
}

// ParseArch maps an architecture name to its core.Arch.
func ParseArch(name string) (core.Arch, error) {
	for _, a := range core.Architectures() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q (want distributed, distributed-ndp, disaggregated, or disaggregated-ndp)", name)
}

// MakeEngine assembles the analytical sim engine for an architecture
// name on a prepared assignment (ndprun's per-arch loop; core.System is
// the option-driven route).
func MakeEngine(arch string, topo sim.Topology, assign *partition.Assignment, pol sim.OffloadPolicy, aggregate bool, cacheFrac float64, workers int, g *graph.Graph) (sim.Engine, error) {
	switch arch {
	case "distributed":
		return &sim.Distributed{Topo: topo, Assign: assign, Workers: workers}, nil
	case "distributed-ndp":
		return &sim.DistributedNDP{Topo: topo, Assign: assign, Workers: workers}, nil
	case "disaggregated":
		cache := int64(cacheFrac * float64(g.NumEdges()*kernels.EdgeBytes))
		return &sim.Disaggregated{Topo: topo, Assign: assign, CacheBytes: cache, Workers: workers}, nil
	case "disaggregated-ndp":
		return &sim.DisaggregatedNDP{Topo: topo, Assign: assign, Policy: pol, InNetworkAggregation: aggregate, Workers: workers}, nil
	default:
		return nil, fmt.Errorf("unknown architecture %q", arch)
	}
}

// ExperimentFlags configures the experiment drivers (ndpbench): the
// dataset scale/seed shared with GraphFlags plus the PageRank iteration
// budget and the global worker cap. Each artifact picks its own
// datasets, so there is no -dataset/-graph selector here.
type ExperimentFlags struct {
	Scale   float64
	Seed    uint64
	PRIters int
	Workers int
}

// Register installs the group on fs with the standard names.
func (f *ExperimentFlags) Register(fs *flag.FlagSet) {
	fs.Float64Var(&f.Scale, "scale", 0.5, "dataset scale factor")
	fs.Uint64Var(&f.Seed, "seed", 42, "dataset generation seed")
	fs.IntVar(&f.PRIters, "priters", 10, "PageRank iterations")
	fs.IntVar(&f.Workers, "workers", 0, "worker pool size for simulator + experiment fan-out (0 = all cores); results are identical for every setting")
}

// ApplyWorkers caps both layers of experiment parallelism with one
// knob: the drivers' goroutine fan-out and each engine's worker pool
// size, via GOMAXPROCS. Artifacts are bit-identical for every setting.
func (f *ExperimentFlags) ApplyWorkers() {
	if f.Workers > 0 {
		goruntime.GOMAXPROCS(f.Workers)
	}
}

// FaultFlags configures cluster fault injection.
type FaultFlags struct {
	Seed      uint64
	Drop      float64
	Duplicate float64
	Delay     float64
	CrashSpec string
}

// Register installs the group on fs with the standard names.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Seed, "fault-seed", 0, "cluster: fault-injection seed")
	fs.Float64Var(&f.Drop, "fault-drop", 0, "cluster: per-transmission drop probability on update links")
	fs.Float64Var(&f.Duplicate, "fault-dup", 0, "cluster: duplicate-delivery probability on update links")
	fs.Float64Var(&f.Delay, "fault-delay", 0, "cluster: delayed-delivery probability on update links")
	fs.StringVar(&f.CrashSpec, "crash", "", "cluster: memory-node crash schedule, e.g. 2@1,4@3 (node@iteration)")
}

// Plan assembles the validated-shape fault plan from the flag values.
func (f *FaultFlags) Plan() (cluster.FaultPlan, error) {
	plan := cluster.FaultPlan{
		Seed:   f.Seed,
		Update: cluster.LinkFaults{Drop: f.Drop, Duplicate: f.Duplicate, Delay: f.Delay},
	}
	crash, err := ParseCrashSpec(f.CrashSpec)
	if err != nil {
		return cluster.FaultPlan{}, err
	}
	plan.Crash = crash
	return plan, nil
}

// ParseCrashSpec parses "node@iteration" pairs: "2@1,4@3" kills memory
// node 2 at the start of iteration 1 and node 4 at iteration 3.
func ParseCrashSpec(spec string) (map[int]int, error) {
	if spec == "" {
		return nil, nil
	}
	crash := make(map[int]int)
	for _, part := range strings.Split(spec, ",") {
		node, iter, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("crash entry %q: want node@iteration", part)
		}
		n, err := strconv.Atoi(node)
		if err != nil {
			return nil, fmt.Errorf("crash entry %q: bad node: %v", part, err)
		}
		i, err := strconv.Atoi(iter)
		if err != nil {
			return nil, fmt.Errorf("crash entry %q: bad iteration: %v", part, err)
		}
		if _, dup := crash[n]; dup {
			return nil, fmt.Errorf("crash entry %q: node %d scheduled twice", part, n)
		}
		crash[n] = i
	}
	return crash, nil
}

// ClusterFlags configures the concurrent actor cluster's shape.
type ClusterFlags struct {
	TreeFanIn    int
	ChannelDepth int
}

// Register installs the group on fs with the standard names.
func (f *ClusterFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.TreeFanIn, "treefanin", 0, "cluster: switch-tree fan-in (0 = flat single switch, >= 2 = SHARP-style tree)")
	fs.IntVar(&f.ChannelDepth, "chandepth", 0, "cluster: link channel depth (0 = default)")
}
