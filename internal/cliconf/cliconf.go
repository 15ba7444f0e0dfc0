// Package cliconf is the shared flag layer of the run-style commands
// (ndprun, ndpbench, ndpserve; gpart loads its graph through LoadGraph):
// flag groups as registerable structs (GraphFlags, EngineFlags,
// ExperimentFlags, FaultFlags, ClusterFlags), so each command picks the
// groups it needs and spells a knob the same way. The engine flags
// default to core's table. Names resolve in the packages that own them
// (kernels.ByNameIters, kernels.ParseDirection, partition.ByName,
// runtime.ByName, core.ParseArch), not here.
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
	SwitchBuf   int64
	PRIters     int
	Workers     int
	Direction   string
}

// Register installs the group on fs with the standard names.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Kernel, "kernel", "pagerank", "kernel: pagerank | pagerank-delta | ppr | cc | bfs | sssp | sswp | indegree | reach")
	fs.StringVar(&f.Arch, "arch", "disaggregated-ndp", "architecture: distributed | distributed-ndp | disaggregated | disaggregated-ndp | all | serial (in-process kernel engine, no simulation)")
	fs.IntVar(&f.Partitions, "partitions", core.DefaultMemoryNodes, "memory nodes / partitions")
	fs.IntVar(&f.Computes, "computes", core.DefaultComputeNodes, "compute nodes")
	fs.StringVar(&f.Partitioner, "partitioner", core.DefaultPartitioner, strings.Join(partition.Names(), " | "))
	fs.StringVar(&f.Policy, "policy", core.DefaultPolicy, "offload policy: "+strings.Join(runtime.Names(), " | ")+" (or threshold)")
	fs.BoolVar(&f.Aggregate, "aggregate", core.DefaultAggregation, "enable in-network aggregation")
	fs.StringVar(&f.Device, "device", "CXL-CMS", "memory-node NDP device (see ndpbench table1)")
	fs.Int64Var(&f.SwitchBuf, "switchbuffer", 0, "switch aggregation buffer entries (0 = unlimited)")
	fs.IntVar(&f.PRIters, "priters", 10, "PageRank iterations")
	fs.IntVar(&f.Workers, "workers", 0, "simulator worker pool size (0 = GOMAXPROCS); results are identical for every setting")
	fs.StringVar(&f.Direction, "direction", "auto", "kernel engine traversal direction: auto | push | pull (pull needs a gather-capable kernel)")
}

// EngineOptions resolves the flag group's kernel-engine options
// (direction mode, worker pool width).
func (f *EngineFlags) EngineOptions() (kernels.Options, error) {
	dir, err := kernels.ParseDirection(f.Direction)
	if err != nil {
		return kernels.Options{}, err
	}
	return kernels.Options{
		Workers:   f.Workers,
		Direction: dir,
	}, nil
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
