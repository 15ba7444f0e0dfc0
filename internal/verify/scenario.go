// Package verify is the differential and invariant verification harness:
// it generates seeded random scenarios — generator × scale × kernel ×
// partitioner × worker count × fault plan — runs each through the serial
// reference, all four analytical architectures (package sim via core),
// and the concurrent cluster (package cluster), and checks two oracle
// families:
//
//   - differential oracles: kernel results bit-identical across the four
//     architectures, across serial vs parallel execution, and across
//     fault-free vs faulted cluster runs; cluster wire traffic equal to
//     the simulator's analytical accounting;
//   - paper-derived invariants: data-movement conservation (bytes sent =
//     bytes received per link class), aggregation never increasing moved
//     bytes beyond the pass-through estimate, monotone frontier
//     convergence for traversal kernels, master/mirror consistency after
//     crash recovery, and partition validity.
//
// Every scenario is a pure function of (seed, index), serializes to JSON
// for replay, and shrinks to a minimal reproducer on failure. The
// cmd/ndpverify command is the CLI face.
package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// Generator names BuildGraph accepts.
var generatorNames = []string{"community", "er", "grid", "pa", "rmat", "skewedstar", "ws"}

// CrashEvent schedules one memory-node crash.
type CrashEvent struct {
	// Node is the memory-node actor index (must be < Partitions).
	Node int `json:"node"`
	// Iteration is the iteration at whose start the actor dies.
	Iteration int `json:"iteration"`
}

// FaultSpec is the scenario's fault plan: class-wide link fault
// probabilities plus a crash schedule, all driven by Seed.
type FaultSpec struct {
	Seed      uint64       `json:"seed,omitempty"`
	Drop      float64      `json:"drop,omitempty"`
	Duplicate float64      `json:"duplicate,omitempty"`
	Delay     float64      `json:"delay,omitempty"`
	Crashes   []CrashEvent `json:"crashes,omitempty"`
}

// Empty reports whether the spec injects nothing.
func (f FaultSpec) Empty() bool {
	return f.Drop == 0 && f.Duplicate == 0 && f.Delay == 0 && len(f.Crashes) == 0
}

// plan is the spec as the cluster's fault plan: its probabilities on
// both link classes, and its crash schedule (nil when it has none).
func (f FaultSpec) plan() cluster.FaultPlan {
	links := cluster.LinkFaults{Drop: f.Drop, Duplicate: f.Duplicate, Delay: f.Delay}
	p := cluster.FaultPlan{Seed: f.Seed, Update: links, Writeback: links}
	if len(f.Crashes) > 0 {
		p.Crash = make(map[int]int, len(f.Crashes))
		for _, ev := range f.Crashes {
			p.Crash[ev.Node] = ev.Iteration
		}
	}
	return p
}

// Scenario is one fully-specified verification case. It is deliberately
// plain data: JSON round-trips it, the shrinker mutates it, and Check
// consumes it.
type Scenario struct {
	// Index is the scenario's position in its generation stream
	// (informational; replay ignores it).
	Index int `json:"index"`
	// Seed drives graph generation and everything else derived inside
	// the scenario.
	Seed uint64 `json:"seed"`
	// Generator picks the synthetic graph family; Vertices and
	// EdgeFactor its size and density. RMAT rounds Vertices up to a
	// power of two.
	Generator  string `json:"generator"`
	Vertices   int    `json:"vertices"`
	EdgeFactor int    `json:"edgeFactor"`
	// Kernel and Partitioner are registry names (kernels.ByName,
	// partition.ByName).
	Kernel      string `json:"kernel"`
	Partitioner string `json:"partitioner"`
	// Partitions is the memory-pool width (assignment K), ComputeNodes
	// the host count, Workers the simulator's worker-pool cap.
	Partitions   int `json:"partitions"`
	ComputeNodes int `json:"computeNodes"`
	Workers      int `json:"workers"`
	// Aggregation toggles in-network aggregation (pinned explicitly, so
	// all four Compare rows use the same setting).
	Aggregation bool `json:"aggregation"`
	// SwitchBufferEntries bounds the simulated switch's aggregation
	// buffer (0 = unlimited). Bounded buffers exercise the pass-through
	// model that the aggregation-formula invariant re-derives.
	SwitchBufferEntries int64 `json:"switchBufferEntries,omitempty"`
	// Cluster enables the concurrent-cluster legs (fault-free run,
	// traffic cross-validation, and — with a non-empty Fault — the
	// faulted differential run). Always false for stateful kernels.
	Cluster bool `json:"cluster"`
	// TreeFanIn and ChannelDepth shape the cluster (0 = defaults).
	TreeFanIn    int `json:"treeFanIn,omitempty"`
	ChannelDepth int `json:"channelDepth,omitempty"`
	// Fault is the cluster fault plan (ignored unless Cluster).
	Fault FaultSpec `json:"fault"`
}

// rng is a splitmix64 stream — the same generator family internal/gen
// and the cluster fault injector use, re-implemented here because both
// keep theirs unexported. No math/rand, no wall clock: scenario streams
// must be pure functions of the seed.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(xs []string) string { return xs[r.intn(len(xs))] }

// Generate derives scenario `index` of the stream rooted at masterSeed.
// The same (masterSeed, index) always yields the same scenario.
func Generate(masterSeed uint64, index int) Scenario {
	r := &rng{state: masterSeed ^ (uint64(index)+1)*0xbf58476d1ce4e5b9}
	r.next() // discard the first raw state mix
	sizes := []int{48, 64, 96, 128, 192, 256, 384, 512}
	sc := Scenario{
		Index:        index,
		Seed:         r.next(),
		Generator:    r.pick(generatorNames),
		Vertices:     sizes[r.intn(len(sizes))],
		EdgeFactor:   2 + r.intn(6),
		Kernel:       r.pick(kernels.Names()),
		Partitioner:  r.pick(partition.Names()),
		Partitions:   2 + r.intn(6),
		ComputeNodes: 1 + r.intn(3),
		Workers:      1 + r.intn(4),
		Aggregation:  r.intn(3) != 0,
	}
	if r.intn(3) == 0 {
		buffers := []int64{8, 16, 32, 64}
		sc.SwitchBufferEntries = buffers[r.intn(len(buffers))]
	}
	// Cluster legs: most scenarios run them; stateful kernels cannot
	// (cluster.Run rejects them by design).
	if !statefulKernel(sc.Kernel) && r.intn(4) != 0 {
		sc.Cluster = true
		sc.TreeFanIn = []int{0, 0, 2, 3}[r.intn(4)]
		sc.ChannelDepth = []int{0, 0, 4, 16}[r.intn(4)]
		if r.intn(2) == 0 {
			probs := []float64{0, 0.05, 0.15}
			sc.Fault = FaultSpec{
				Seed:      r.next(),
				Drop:      probs[r.intn(len(probs))],
				Duplicate: probs[r.intn(len(probs))],
				Delay:     probs[r.intn(len(probs))],
			}
			if r.intn(3) == 0 && sc.Partitions >= 2 {
				sc.Fault.Crashes = []CrashEvent{{
					Node:      r.intn(sc.Partitions),
					Iteration: r.intn(3),
				}}
			}
		}
	}
	return sc
}

// statefulKernel reports whether the named kernel keeps per-run side
// state (and so cannot run on the concurrent cluster).
func statefulKernel(name string) bool {
	k, err := kernels.ByName(name)
	if err != nil {
		return false
	}
	_, ok := k.(kernels.StatefulKernel)
	return ok
}

// spec is the machine the scenario describes, as core's one description
// of a machine: every axis the scenario draws, on DefaultSpec's values
// for the rest (the disaggregated-ndp simulator under the heuristic
// policy). The fault plan is the cluster legs' alone; the other runs do
// not read it.
func (sc Scenario) spec() core.Spec {
	s := core.DefaultSpec()
	s.Kernel, s.Partitions, s.Computes, s.Workers = sc.Kernel, sc.Partitions, sc.ComputeNodes, sc.Workers
	s.Partitioner, s.Seed = sc.Partitioner, sc.Seed
	s.Aggregation, s.SwitchBuffer = sc.Aggregation, sc.SwitchBufferEntries
	s.TreeFanIn, s.ChannelDepth, s.Fault = sc.TreeFanIn, sc.ChannelDepth, sc.Fault.plan()
	return s
}

// Validate rejects malformed scenarios with a precise complaint —
// generated scenarios are valid by construction, but replay files are
// hand-editable and the shrinker must not wander out of the space.
func (sc Scenario) Validate() error {
	_, err := sc.system()
	return err
}

// system checks the scenario's own bounds and builds its System, which
// refuses every name, knob and crash schedule the machine cannot take.
func (sc Scenario) system() (*core.System, error) {
	if !slices.Contains(generatorNames, sc.Generator) {
		return nil, fmt.Errorf("verify: unknown generator %q (available: %v)", sc.Generator, generatorNames)
	}
	if sc.Vertices < 2 {
		return nil, fmt.Errorf("verify: Vertices = %d, want >= 2", sc.Vertices)
	}
	if sc.EdgeFactor < 1 {
		return nil, fmt.Errorf("verify: EdgeFactor = %d, want >= 1", sc.EdgeFactor)
	}
	if sc.Partitions > sc.Vertices {
		return nil, fmt.Errorf("verify: Partitions = %d, want at most Vertices, %d", sc.Partitions, sc.Vertices)
	}
	if sc.Workers < 1 {
		return nil, fmt.Errorf("verify: Workers = %d, want >= 1", sc.Workers)
	}
	if sc.Cluster && statefulKernel(sc.Kernel) {
		return nil, fmt.Errorf("verify: kernel %q is stateful; Cluster legs are impossible", sc.Kernel)
	}
	crashed := map[int]bool{}
	for _, c := range sc.Fault.Crashes {
		if crashed[c.Node] {
			return nil, fmt.Errorf("verify: memory node %d crashes twice", c.Node)
		}
		crashed[c.Node] = true
	}
	return sc.spec().System()
}

// BuildGraph materializes the scenario's graph. Every graph is weighted
// (SSSP/SSWP need weights; the others ignore them) with self-loops
// dropped, so every kernel in the registry runs on every scenario.
func (sc Scenario) BuildGraph() (*graph.Graph, error) {
	cfg := gen.Config{Seed: sc.Seed, Weighted: true, DropSelfLoops: true}
	n, ef := sc.Vertices, sc.EdgeFactor
	switch sc.Generator {
	case "er":
		return gen.ErdosRenyi(n, n*ef, cfg)
	case "rmat":
		s := 1
		for (1 << s) < n {
			s++
		}
		return gen.RMATGraph500(s, ef, cfg)
	case "pa":
		return gen.PreferentialAttachment(n, maxInt(1, ef/2), cfg)
	case "ws":
		return gen.WattsStrogatz(n, maxInt(1, ef/2), 0.1, cfg)
	case "skewedstar":
		return gen.SkewedStar(n, maxInt(1, n/16), n/4, 2, cfg)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Grid(side, side, cfg)
	case "community":
		return gen.Community(n, maxInt(2, n/64), ef, 0.85, cfg)
	default:
		return nil, fmt.Errorf("verify: unknown generator %q", sc.Generator)
	}
}

// String is a compact one-line descriptor for progress output. It must
// be deterministic: ndpverify's byte-identical-runs guarantee includes
// these lines.
func (sc Scenario) String() string {
	extra := ""
	if sc.SwitchBufferEntries > 0 {
		extra += fmt.Sprintf(" buf=%d", sc.SwitchBufferEntries)
	}
	if sc.Cluster {
		extra += " cluster"
		if !sc.Fault.Empty() {
			extra += fmt.Sprintf(" fault(d=%g,u=%g,y=%g,c=%d)",
				sc.Fault.Drop, sc.Fault.Duplicate, sc.Fault.Delay, len(sc.Fault.Crashes))
		}
	}
	return fmt.Sprintf("%s n=%d ef=%d %s/%s k=%d c=%d w=%d agg=%v%s",
		sc.Generator, sc.Vertices, sc.EdgeFactor, sc.Kernel, sc.Partitioner,
		sc.Partitions, sc.ComputeNodes, sc.Workers, sc.Aggregation, extra)
}

// MarshalIndent renders the scenario as replayable JSON.
func (sc Scenario) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// ParseScenario loads a scenario from replay JSON, rejecting unknown
// fields and anything after the scenario's closing brace (a typo or a
// botched paste in a hand-edited reproducer must not silently vanish).
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	if err := unmarshalStrict(data, &sc); err != nil {
		return Scenario{}, fmt.Errorf("verify: parsing scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// unmarshalStrict decodes exactly one JSON value with no unknown fields:
// anything but whitespace after it is refused like a typo inside it.
func unmarshalStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the scenario at byte %d", dec.InputOffset())
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
