// Package cliconf is the flag layer of the run-style commands: flag
// groups as registerable structs, so a knob is spelled the same way
// wherever it appears. GraphFlags is ndprun's input graph (ndpserve and
// gpart load theirs through LoadGraph); RunFlags is ndprun's run, filling
// one core.Spec on core.DefaultSpec's values; ExperimentFlags is
// ndpbench's. Names resolve in the packages that own them, through
// core.Spec, not here.
package cliconf

import (
	"flag"
	"fmt"
	goruntime "runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
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

// RunFlags is ndprun's run: the engine, kernel and machine flags and the
// cluster's shape and fault flags, registered straight into one
// core.Spec on core.DefaultSpec's values.
type RunFlags struct {
	// Arch is an architecture's name, "all" for Compare's four, or
	// "serial" for the kernel engine; Cluster selects the actor cluster.
	Arch    string
	Cluster bool
	spec    core.Spec
	crash   string
}

// runFields maps each flag that sets a knob of the run to the core.Spec
// field it sets, by the field's JSON name: the names Spec.Unread gives.
var runFields = map[string]string{
	"kernel": "kernel", "priters": "priters", "partitions": "partitions", "computes": "computes",
	"partitioner": "partitioner", "policy": "policy", "aggregate": "aggregation", "device": "device",
	"switchbuffer": "switchbuffer", "treefanin": "treefanin", "chandepth": "chandepth",
	"fault-seed": "fault", "fault-drop": "fault", "fault-dup": "fault", "fault-delay": "fault", "crash": "fault",
	"direction": "direction", "workers": "workers",
}

// Register installs the group on fs with the standard names.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	d, s := core.DefaultSpec(), &f.spec
	fs.StringVar(&s.Kernel, "kernel", d.Kernel, "kernel: pagerank | pagerank-delta | ppr | cc | bfs | sssp | sswp | indegree | reach")
	fs.StringVar(&f.Arch, "arch", d.Arch, "architecture: distributed | distributed-ndp | disaggregated | disaggregated-ndp | all | serial (in-process kernel engine, no simulation)")
	fs.BoolVar(&f.Cluster, "cluster", false, "run on the concurrent actor cluster instead of the simulator (disaggregated-ndp only)")
	fs.IntVar(&s.Partitions, "partitions", d.Partitions, "memory nodes / partitions")
	fs.IntVar(&s.Computes, "computes", d.Computes, "compute nodes")
	fs.StringVar(&s.Partitioner, "partitioner", d.Partitioner, strings.Join(partition.Names(), " | "))
	fs.StringVar(&s.Policy, "policy", d.Policy, "offload policy: "+strings.Join(runtime.Names(), " | ")+" (or threshold)")
	fs.BoolVar(&s.Aggregation, "aggregate", d.Aggregation, "enable in-network aggregation")
	fs.StringVar(&s.Device, "device", d.Device, "memory-node NDP device (see ndpbench table1)")
	fs.Int64Var(&s.SwitchBuffer, "switchbuffer", 0, "switch aggregation buffer entries (0 = unlimited)")
	fs.IntVar(&s.PRIters, "priters", d.PRIters, "PageRank iterations")
	fs.IntVar(&s.Workers, "workers", 0, "simulator worker pool size (0 = GOMAXPROCS); results are identical for every setting")
	fs.StringVar(&s.Direction, "direction", d.Direction, "kernel engine traversal direction: auto | push | pull (pull needs a gather-capable kernel)")
	fs.IntVar(&s.TreeFanIn, "treefanin", 0, "cluster: switch-tree fan-in (0 = flat single switch, >= 2 = SHARP-style tree)")
	fs.IntVar(&s.ChannelDepth, "chandepth", 0, "cluster: link channel depth (0 = default)")
	fs.Uint64Var(&s.Fault.Seed, "fault-seed", 0, "cluster: fault-injection seed")
	fs.Float64Var(&s.Fault.Update.Drop, "fault-drop", 0, "cluster: per-transmission drop probability on update links")
	fs.Float64Var(&s.Fault.Update.Duplicate, "fault-dup", 0, "cluster: duplicate-delivery probability on update links")
	fs.Float64Var(&s.Fault.Update.Delay, "fault-delay", 0, "cluster: delayed-delivery probability on update links")
	fs.StringVar(&f.crash, "crash", "", "cluster: memory-node crash schedule, e.g. 2@1,4@3 (node@iteration)")
}

// Field names the core.Spec field the flag sets, or "" for a flag that
// sets none.
func (f *RunFlags) Field(flag string) string { return runFields[flag] }

// Spec is the validated run the flags describe, partitioned at seed. The
// kernel engine and -arch all describe disaggregated-ndp: the kernel
// engine reads no architecture, and Compare's other three rows are
// clones of that one.
func (f *RunFlags) Spec(seed uint64) (core.Spec, error) {
	s := f.spec
	s.Engine, s.Arch, s.Seed = core.EngineSim, f.Arch, seed
	switch {
	case f.Cluster && f.Arch != core.DisaggregatedNDP.String():
		return s, fmt.Errorf("-cluster runs the concurrent disaggregated-ndp implementation; got -arch %s", f.Arch)
	case f.spec.TreeFanIn == 1:
		return s, fmt.Errorf("-treefanin 1 is no topology: use 0 for the flat topology, >= 2 for a tree")
	case f.Cluster:
		s.Engine = core.EngineCluster
	case f.Arch == "serial":
		s.Engine, s.Arch = core.EngineSerial, core.DisaggregatedNDP.String()
	case f.Arch == "all":
		s.Arch = core.DisaggregatedNDP.String()
	}
	crash, err := ParseCrashSpec(f.crash)
	if err != nil {
		return s, err
	}
	s.Fault.Crash = crash
	return s, s.Validate()
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
