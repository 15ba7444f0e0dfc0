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

// Validate rejects malformed scenarios with a precise complaint —
// generated scenarios are valid by construction, but replay files are
// hand-editable and the shrinker must not wander out of the space.
func (sc Scenario) Validate() error {
	okGen := false
	for _, g := range generatorNames {
		if sc.Generator == g {
			okGen = true
		}
	}
	if !okGen {
		return fmt.Errorf("verify: unknown generator %q (available: %v)", sc.Generator, generatorNames)
	}
	if sc.Vertices < 2 {
		return fmt.Errorf("verify: Vertices = %d, want >= 2", sc.Vertices)
	}
	if sc.EdgeFactor < 1 {
		return fmt.Errorf("verify: EdgeFactor = %d, want >= 1", sc.EdgeFactor)
	}
	if _, err := kernels.ByName(sc.Kernel); err != nil {
		return err
	}
	if _, err := partition.ByName(sc.Partitioner, sc.Seed); err != nil {
		return err
	}
	if sc.Partitions < 1 || sc.Partitions > sc.Vertices {
		return fmt.Errorf("verify: Partitions = %d, want in [1, %d]", sc.Partitions, sc.Vertices)
	}
	if sc.ComputeNodes < 1 {
		return fmt.Errorf("verify: ComputeNodes = %d, want >= 1", sc.ComputeNodes)
	}
	if sc.Workers < 1 {
		return fmt.Errorf("verify: Workers = %d, want >= 1", sc.Workers)
	}
	if sc.SwitchBufferEntries < 0 {
		return fmt.Errorf("verify: SwitchBufferEntries = %d, want >= 0", sc.SwitchBufferEntries)
	}
	if sc.TreeFanIn < 0 || sc.ChannelDepth < 0 {
		return fmt.Errorf("verify: negative TreeFanIn/ChannelDepth")
	}
	if sc.Cluster && statefulKernel(sc.Kernel) {
		return fmt.Errorf("verify: kernel %q is stateful; Cluster legs are impossible", sc.Kernel)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", sc.Fault.Drop}, {"duplicate", sc.Fault.Duplicate}, {"delay", sc.Fault.Delay}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("verify: fault %s probability %g outside [0, 1]", p.name, p.v)
		}
	}
	crashed := map[int]bool{}
	for _, c := range sc.Fault.Crashes {
		if c.Node < 0 || c.Node >= sc.Partitions {
			return fmt.Errorf("verify: crash names memory node %d, pool has %d", c.Node, sc.Partitions)
		}
		if c.Iteration < 0 {
			return fmt.Errorf("verify: crash at negative iteration %d", c.Iteration)
		}
		if crashed[c.Node] {
			return fmt.Errorf("verify: memory node %d crashes twice", c.Node)
		}
		crashed[c.Node] = true
	}
	if len(crashed) >= sc.Partitions {
		return fmt.Errorf("verify: crash schedule kills all %d memory nodes", sc.Partitions)
	}
	return nil
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
