package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/metrics"
)

// JobSpec is the wire form of a job submission: the snapshot to run
// against plus the same user-facing names the CLIs accept (resolved
// through cliconf, so "pagerank" or "ldg" mean exactly what they mean
// to ndprun). Zero fields take the documented defaults; normalize fills
// them in so the canonical form — and therefore the result-cache key —
// is independent of which defaults the client spelled out.
type JobSpec struct {
	// Snapshot names the registry entry to run against.
	Snapshot string `json:"snapshot"`
	// Engine selects the execution model: "sim" (analytical simulator,
	// the default), "cluster" (concurrent actor cluster), or "serial"
	// (reference implementation).
	Engine string `json:"engine,omitempty"`
	// Kernel and PRIters select the vertex program.
	Kernel  string `json:"kernel,omitempty"`
	PRIters int    `json:"priters,omitempty"`
	// Arch picks the simulated architecture (sim engine only).
	Arch string `json:"arch,omitempty"`
	// Partitions / Computes shape the topology; Partitioner and Seed
	// pick the edge-list partitioning.
	Partitions  int    `json:"partitions,omitempty"`
	Computes    int    `json:"computes,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	// Policy is the NDP offload policy (sim, disaggregated-ndp only).
	Policy string `json:"policy,omitempty"`
	// Aggregation pins in-network aggregation; nil keeps the per-arch
	// default (on for disaggregated-ndp).
	Aggregation *bool `json:"aggregation,omitempty"`
	// TreeFanIn / ChannelDepth shape the concurrent cluster.
	TreeFanIn    int `json:"treefanin,omitempty"`
	ChannelDepth int `json:"chandepth,omitempty"`
	// Workers caps the executor's worker pool. Purely a speed knob —
	// results are bit-identical for every setting — so it is excluded
	// from the cache key.
	Workers int `json:"workers,omitempty"`
}

// Engine selector values.
const (
	EngineSim     = "sim"
	EngineCluster = "cluster"
	EngineSerial  = "serial"
)

// Normalize fills defaults in place and validates every name against
// the same resolvers the CLIs use. After Normalize, two specs that mean
// the same run are equal structs. Submit normalizes internally; callers
// running a spec offline (ExecuteSpec) normalize first so both sides
// resolve identically.
func (s *JobSpec) Normalize() error { return s.normalize() }

func (s *JobSpec) normalize() error {
	if s.Snapshot == "" {
		return fmt.Errorf("spec: snapshot is required")
	}
	if s.Engine == "" {
		s.Engine = EngineSim
	}
	switch s.Engine {
	case EngineSim, EngineCluster, EngineSerial:
	default:
		return fmt.Errorf("spec: unknown engine %q (want sim, cluster, or serial)", s.Engine)
	}
	if s.Kernel == "" {
		s.Kernel = "pagerank"
	}
	if s.PRIters == 0 {
		s.PRIters = 10
	}
	if s.PRIters < 0 {
		return fmt.Errorf("spec: priters must be positive")
	}
	if s.Arch == "" {
		s.Arch = core.DisaggregatedNDP.String()
	}
	if s.Partitions == 0 {
		s.Partitions = 8
	}
	if s.Computes == 0 {
		s.Computes = 2
	}
	if s.Partitions < 0 || s.Computes < 0 {
		return fmt.Errorf("spec: partitions and computes must be positive")
	}
	if s.Partitioner == "" {
		s.Partitioner = "hash"
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Policy == "" {
		s.Policy = "always"
	}
	if _, err := cliconf.MakeKernel(s.Kernel, s.PRIters); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	if _, err := cliconf.MakePartitioner(s.Partitioner, s.Seed); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	if _, err := cliconf.MakePolicy(s.Policy); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	arch, err := cliconf.ParseArch(s.Arch)
	if err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	if s.Engine == EngineCluster && arch != core.DisaggregatedNDP {
		return fmt.Errorf("spec: engine cluster models the disaggregated-ndp architecture; got arch %q", s.Arch)
	}
	if s.TreeFanIn < 0 || s.ChannelDepth < 0 || s.Workers < 0 {
		return fmt.Errorf("spec: treefanin, chandepth, and workers must be non-negative")
	}
	return nil
}

// cacheKey is the canonical identity of the run the spec describes on a
// given snapshot: the snapshot content digest plus the normalized spec
// with the speed-only Workers knob zeroed. Execution is deterministic,
// so equal keys imply byte-identical results (the served-vs-offline
// oracle asserts exactly this).
func (s JobSpec) cacheKey(digest string) string {
	s.Workers = 0
	// JobSpec is plain data — strings, ints, *bool — so Marshal cannot
	// fail; the blank assignment keeps that a compile-visible fact.
	b, _ := json.Marshal(s)
	return digest + "\n" + string(b)
}

// WireResult is the JSON form of a core.Result. Vertex values travel as
// base64 little-endian IEEE-754 bits, not JSON numbers: BFS/SSSP leave
// unreached vertices at +Inf, which encoding/json rejects, and bit
// transport keeps the served oracle's byte-for-byte comparison exact.
type WireResult struct {
	Engine     string `json:"engine"`
	Kernel     string `json:"kernel"`
	NumValues  int    `json:"num_values"`
	ValuesB64  string `json:"values_b64"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`

	// Analytical totals (sim engines; zero for cluster runs).
	TotalDataMovementBytes int64   `json:"total_data_movement_bytes,omitempty"`
	TotalSyncEvents        int64   `json:"total_sync_events,omitempty"`
	TotalSeconds           float64 `json:"total_seconds,omitempty"`
	TotalEnergyJoules      float64 `json:"total_energy_joules,omitempty"`
	OffloadSupported       bool    `json:"offload_supported,omitempty"`
	OffloadNote            string  `json:"offload_note,omitempty"`
	// MovementSeries is the per-iteration data-movement trajectory
	// (Records for sim runs, per-iteration traffic totals for cluster).
	MovementSeries []int64 `json:"movement_series,omitempty"`

	// Concurrent-cluster traffic and fault summary (zero for sim runs).
	MemToSwitch     int64 `json:"mem_to_switch_bytes,omitempty"`
	SwitchToCompute int64 `json:"switch_to_compute_bytes,omitempty"`
	Writeback       int64 `json:"writeback_bytes,omitempty"`
	FaultDrops      int64 `json:"fault_drops,omitempty"`
	FaultCrashes    int64 `json:"fault_crashes,omitempty"`
	FaultRetries    int64 `json:"fault_retries,omitempty"`
	// Counters is the run's metrics snapshot, sorted by name.
	Counters []WireCounter `json:"counters,omitempty"`
}

// WireCounter is one named counter value.
type WireCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// EncodeValues packs a float64 vector as base64 little-endian bits.
func EncodeValues(vals []float64) string {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeValues unpacks EncodeValues output.
func DecodeValues(s string) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("values: %v", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("values: %d bytes is not a float64 vector", len(buf))
	}
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return vals, nil
}

// ToWire converts a unified result to its wire form.
func ToWire(r *core.Result) *WireResult {
	w := &WireResult{
		Engine:                 r.Engine,
		Kernel:                 r.Kernel,
		NumValues:              len(r.Values),
		ValuesB64:              EncodeValues(r.Values),
		Iterations:             r.Iterations,
		Converged:              r.Converged,
		TotalDataMovementBytes: r.TotalDataMovementBytes,
		TotalSyncEvents:        r.TotalSyncEvents,
		TotalSeconds:           r.TotalSeconds,
		TotalEnergyJoules:      r.TotalEnergyJoules,
		OffloadSupported:       r.OffloadSupported,
		OffloadNote:            r.OffloadNote,
		MovementSeries:         r.MovementSeries(),
		MemToSwitch:            r.Traffic.MemToSwitch,
		SwitchToCompute:        r.Traffic.SwitchToCompute,
		Writeback:              r.Traffic.Writeback,
		FaultDrops:             r.Faults.Drops,
		FaultCrashes:           r.Faults.Crashes,
		FaultRetries:           r.Faults.Retries,
	}
	if len(r.Counters) > 0 {
		w.Counters = make([]WireCounter, len(r.Counters))
		for i, c := range r.Counters {
			w.Counters[i] = WireCounter{Name: c.Name, Value: c.Value}
		}
	}
	return w
}

// Values decodes the vertex value vector.
func (w *WireResult) Values() ([]float64, error) {
	vals, err := DecodeValues(w.ValuesB64)
	if err != nil {
		return nil, err
	}
	if len(vals) != w.NumValues {
		return nil, fmt.Errorf("values: got %d, header says %d", len(vals), w.NumValues)
	}
	return vals, nil
}

// MarshalResult renders a result in the canonical byte form the service
// stores, caches, and serves. encoding/json with fixed struct field
// order and no maps is deterministic, so equal results marshal to equal
// bytes — the invariant the served oracle and the result cache rest on.
func MarshalResult(r *core.Result) ([]byte, error) {
	return json.Marshal(ToWire(r))
}

// Metric names the service registers in internal/metrics.
const (
	CounterJobsSubmitted     = "serve.jobs.submitted"
	CounterJobsCompleted     = "serve.jobs.completed"
	CounterJobsFailed        = "serve.jobs.failed"
	CounterJobsCancelled     = "serve.jobs.cancelled"
	CounterRejectedQueueFull = "serve.jobs.rejected.queue_full"
	CounterRejectedQuota     = "serve.jobs.rejected.quota"
	CounterResultCacheHits   = "serve.cache.result.hits"
	CounterResultCacheMisses = "serve.cache.result.misses"
	CounterPlanCacheHits     = "serve.cache.plan.hits"
	CounterPlanCacheMisses   = "serve.cache.plan.misses"
	// Status requests that parked on a running job, and those whose bound
	// ran out first: all parks and no expiries is a long-polling client,
	// neither a poller, many expiries a bound too small for the jobs.
	CounterWaitsParked  = "serve.waits.parked"
	CounterWaitsExpired = "serve.waits.expired"
	// What the service forgot (DESIGN.md, "What the service retains"):
	// 410s beside evictions say the byte budget is too small for the
	// traffic, 410s beside expired jobs alone that clients fetch late.
	CounterResultsEvicted     = "serve.cache.result.evicted"
	CounterResultBytesEvicted = "serve.cache.result.evicted_bytes"
	CounterPlansEvicted       = "serve.cache.plan.evicted"
	CounterJobsExpired        = "serve.jobs.expired"
	CounterLookupsGone        = "serve.lookups.gone"
)

// counters is every serve counter resolved to its handle once, in
// NewManager: an event costs an atomic add, not a registry lookup.
type counters struct {
	submitted, completed, failed, cancelled *metrics.Counter
	rejectedQueueFull, rejectedQuota        *metrics.Counter
	resultHits, resultMisses, resultsEvicted, resultBytesEvicted,
	planHits, planMisses, plansEvicted,
	waitsParked, waitsExpired, jobsExpired, lookupsGone *metrics.Counter
}

// newCounters resolves the names in the order counters declares them.
func newCounters(reg *metrics.Registry) counters {
	c := reg.Counter
	return counters{
		c(CounterJobsSubmitted), c(CounterJobsCompleted), c(CounterJobsFailed), c(CounterJobsCancelled),
		c(CounterRejectedQueueFull), c(CounterRejectedQuota),
		c(CounterResultCacheHits), c(CounterResultCacheMisses), c(CounterResultsEvicted), c(CounterResultBytesEvicted),
		c(CounterPlanCacheHits), c(CounterPlanCacheMisses), c(CounterPlansEvicted),
		c(CounterWaitsParked), c(CounterWaitsExpired), c(CounterJobsExpired), c(CounterLookupsGone),
	}
}

// metricsSnapshot is the /v1/metricz payload.
type metricsSnapshot struct {
	Counters []WireCounter `json:"counters"`
}

func snapshotWire(reg *metrics.Registry) metricsSnapshot {
	vals := reg.Snapshot()
	out := metricsSnapshot{Counters: make([]WireCounter, len(vals))}
	for i, c := range vals {
		out.Counters[i] = WireCounter{Name: c.Name, Value: c.Value}
	}
	return out
}
