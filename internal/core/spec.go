package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// The engines a Spec selects: the analytical simulator, the concurrent
// actor cluster, and the kernel engine's serial reference.
const (
	EngineSim     = "sim"
	EngineCluster = "cluster"
	EngineSerial  = "serial"
)

// Spec describes one run as plain data, by the names the registries
// resolve: the engine and architecture (the cluster models
// disaggregated-ndp), the kernel and its iteration budget, and every knob
// of the machine — the topology and its partitioning, the offload policy,
// the switch's aggregation and buffer (0 = unlimited), the memory nodes'
// NDP device, the cluster's switch tree, links and faults, and the kernel
// engine's direction and worker pool. ndprun's flags fill one and a
// served job converts to one. The reads table says which field each run
// reads; Canonical and Unread are derived from it. The JSON names are the
// job wire's.
type Spec struct {
	Engine       string            `json:"engine,omitempty"`
	Arch         string            `json:"arch,omitempty"`
	Kernel       string            `json:"kernel,omitempty"`
	PRIters      int               `json:"priters,omitempty"`
	Partitions   int               `json:"partitions,omitempty"`
	Computes     int               `json:"computes,omitempty"`
	Partitioner  string            `json:"partitioner,omitempty"`
	Seed         uint64            `json:"seed,omitempty"`
	Policy       string            `json:"policy,omitempty"`
	Aggregation  bool              `json:"aggregation,omitempty"`
	Device       string            `json:"device,omitempty"`
	SwitchBuffer int64             `json:"switchbuffer,omitempty"`
	TreeFanIn    int               `json:"treefanin,omitempty"`
	ChannelDepth int               `json:"chandepth,omitempty"`
	Fault        cluster.FaultPlan `json:"fault"`
	Direction    string            `json:"direction,omitempty"`
	Workers      int               `json:"workers,omitempty"`
}

// DefaultSpec is core's defaults, the machine Section IV argues for: NDP
// memory pools, in-network aggregation, the dynamic offload runtime and
// min-cut partitioning, simulated, running 10 iterations of pagerank.
// New, ndprun's flags and a served job's empty fields all read it.
func DefaultSpec() Spec {
	return Spec{Engine: EngineSim, Arch: DisaggregatedNDP.String(), Kernel: "pagerank", PRIters: 10,
		Partitions: 8, Computes: 2, Partitioner: "multilevel", Seed: 42, Policy: "heuristic", Aggregation: true,
		Device: ndp.DefaultMemoryDevice().Name, Direction: kernels.DirectionAuto.String()}
}

// read is how a run reads one Spec field: not at all, in a way that can
// change the result's bytes, or in a way that never does.
type read uint8

const (
	unread read = iota
	bearing
	neutral
)

// byRun is how each run reads a field, in the order of the run*
// constants: the kernel engine, the simulator's four architectures in
// Table II order, then the cluster.
type byRun [6]read

const (
	runSerial  = 0
	runCluster = 5
)

// reads is the one statement of which Spec field each run reads, with how
// to zero the field (nil: every run reads it). TestReadsTableMatchesExecution
// holds it to what the engines do. Two rows are decisions rather than
// readings: the distributed architectures price with their memory nodes
// as the servers, so they do not read Computes; and Seed is read wherever
// a partitioner is, though only multilevel uses it, because serve-mix's
// misses are LDG jobs at fresh seeds that zeroing it would make hits.
var reads = []struct {
	name string // the field's JSON name
	by   byRun
	zero func(Spec) Spec
}{
	{"engine", byRun{bearing, bearing, bearing, bearing, bearing, bearing}, nil},
	{"arch", byRun{unread, bearing, bearing, bearing, bearing, bearing}, func(s Spec) Spec { s.Arch = ""; return s }},
	{"kernel", byRun{bearing, bearing, bearing, bearing, bearing, bearing}, nil},
	{"priters", byRun{bearing, bearing, bearing, bearing, bearing, bearing}, nil},
	{"partitions", byRun{unread, bearing, bearing, bearing, bearing, bearing}, func(s Spec) Spec { s.Partitions = 0; return s }},
	{"computes", byRun{unread, unread, unread, bearing, bearing, bearing}, func(s Spec) Spec { s.Computes = 0; return s }},
	{"partitioner", byRun{unread, bearing, bearing, bearing, bearing, bearing}, func(s Spec) Spec { s.Partitioner = ""; return s }},
	{"seed", byRun{unread, bearing, bearing, bearing, bearing, bearing}, func(s Spec) Spec { s.Seed = 0; return s }},
	{"policy", byRun{unread, unread, unread, unread, bearing, unread}, func(s Spec) Spec { s.Policy = ""; return s }},
	{"aggregation", byRun{unread, unread, unread, unread, bearing, bearing}, func(s Spec) Spec { s.Aggregation = false; return s }},
	{"device", byRun{unread, bearing, bearing, unread, bearing, unread}, func(s Spec) Spec { s.Device = ""; return s }},
	{"switchbuffer", byRun{unread, unread, unread, unread, bearing, unread}, func(s Spec) Spec { s.SwitchBuffer = 0; return s }},
	{"treefanin", byRun{unread, unread, unread, unread, unread, bearing}, func(s Spec) Spec { s.TreeFanIn = 0; return s }},
	{"chandepth", byRun{unread, unread, unread, unread, unread, neutral}, func(s Spec) Spec { s.ChannelDepth = 0; return s }},
	{"fault", byRun{unread, unread, unread, unread, unread, bearing}, func(s Spec) Spec { s.Fault = cluster.FaultPlan{}; return s }},
	{"direction", byRun{neutral, unread, unread, unread, unread, unread}, func(s Spec) Spec { s.Direction = ""; return s }},
	{"workers", byRun{neutral, neutral, neutral, neutral, neutral, unread}, func(s Spec) Spec { s.Workers = 0; return s }},
}

// run is s's column of reads, and false for an unknown engine or
// architecture.
func (s Spec) run() (int, bool) {
	switch s.Engine {
	case EngineSerial:
		return runSerial, true
	case EngineCluster:
		return runCluster, true
	}
	a, err := ParseArch(s.Arch)
	return 1 + int(a), s.Engine == EngineSim && err == nil
}

// Canonical is s with only what can change its result's bytes: every
// field its run does not read, or reads neutrally, zeroed; the kernel and
// the policy under their registry names; and PRIters zeroed for a
// kernel with no iteration budget. Two valid specs with one Canonical
// form run to byte-identical results. An invalid s is returned as it is.
func (s Spec) Canonical() Spec {
	col, ok := s.run()
	if !ok {
		return s
	}
	if name, budgeted, err := kernels.Resolve(s.Kernel); err == nil {
		s.Kernel = name
		if !budgeted {
			s.PRIters = 0
		}
	}
	if p, err := runtime.ByName(s.Policy); err == nil {
		s.Policy = p.Name()
	}
	for _, f := range reads {
		if f.by[col] != bearing && f.zero != nil {
			s = f.zero(s)
		}
	}
	return s
}

// Unread names, in reads' order, the fields s's run never reads: a
// command line that sets one asks for something the run would drop.
func (s Spec) Unread() []string {
	col, ok := s.run()
	var names []string
	for _, f := range reads {
		if ok && f.by[col] == unread {
			names = append(names, f.name)
		}
	}
	return names
}

// Validate reports the first of s's names that does not resolve, or count
// below zero. Ranges a machine imposes are the System's to check.
func (s Spec) Validate() error {
	_, _, _, err := s.resolve()
	return err
}

// resolve validates s by resolving each of its names once, against the
// registries that own them. The partitioner's name is checked, not
// constructed, so validation allocates nothing.
func (s Spec) resolve() (arch Arch, pol sim.OffloadPolicy, dev ndp.Device, err error) {
	switch {
	case s.Engine != EngineSim && s.Engine != EngineCluster && s.Engine != EngineSerial:
		err = fmt.Errorf("unknown engine %q (want sim, cluster, or serial)", s.Engine)
	case s.PRIters < 0:
		err = fmt.Errorf("priters must be positive")
	case s.Partitions < 0 || s.Computes < 0:
		err = fmt.Errorf("partitions and computes must be positive")
	case s.TreeFanIn < 0 || s.ChannelDepth < 0 || s.Workers < 0:
		err = fmt.Errorf("treefanin, chandepth, and workers must be non-negative")
	case s.TreeFanIn == 1:
		err = fmt.Errorf("treefanin 1 is no topology: use 0 for the flat topology, >= 2 for a tree")
	}
	if err != nil {
		return
	}
	if _, _, err = kernels.Resolve(s.Kernel); err != nil {
		return
	}
	if _, err = kernels.ParseDirection(s.Direction); err != nil {
		return
	}
	if err = partition.CheckName(s.Partitioner); err != nil {
		return
	}
	if pol, err = runtime.ByName(s.Policy); err != nil {
		return
	}
	if dev, err = ndp.ByName(s.Device); err != nil {
		return
	}
	if arch, err = ParseArch(s.Arch); err == nil && s.Engine == EngineCluster && arch != DisaggregatedNDP {
		err = fmt.Errorf("engine cluster models the disaggregated-ndp architecture; got arch %q", s.Arch)
	}
	return
}

// System builds the machine s describes.
func (s Spec) System() (*System, error) { return s.system() }

// system builds the machine s describes, applies opts, and validates the
// topology and the cluster configuration it ends with.
func (s Spec) system(opts ...Option) (*System, error) {
	arch, pol, dev, err := s.resolve()
	if err != nil {
		return nil, err
	}
	p, err := partition.ByName(s.Partitioner, s.Seed)
	if err != nil {
		return nil, err
	}
	sys := &System{arch: arch, topo: sim.DefaultTopology(s.Computes, s.Partitions), partitioner: p, policy: pol,
		aggregation: s.Aggregation, workers: s.Workers, treeFanIn: s.TreeFanIn, channelDepth: s.ChannelDepth, fault: s.Fault}
	sys.topo.MemDevice, sys.topo.SwitchBufferEntries = dev, s.SwitchBuffer
	for _, opt := range opts {
		opt(sys)
	}
	if err := sys.topo.Validate(); err != nil {
		return nil, err
	}
	if err := sys.ClusterConfig().Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Run executes the run s describes on src, over assign or, when it is
// nil, s's own partitioning of src.
func (s Spec) Run(ctx context.Context, src kernels.Source, assign *partition.Assignment) (*Result, error) {
	sys, err := s.System()
	if err != nil {
		return nil, err
	}
	k, err := kernels.ByNameIters(s.Kernel, s.PRIters)
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	switch s.Engine {
	case EngineSerial:
		eng = SerialEngine()
	case EngineCluster:
		eng = sys.ConcurrentEngine()
	}
	return eng.Run(ctx, src, k, RunConfig{Assignment: assign})
}
