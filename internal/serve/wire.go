package serve

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
)

// JobSpec is the wire form of a job submission: the snapshot to run
// against plus the same user-facing names the CLIs accept. It converts to
// one core.Spec (Spec), which resolves the names against the registries
// that own them, so "pagerank" or "ldg" mean exactly what they mean to
// ndprun. Zero fields take core.DefaultSpec's values, as ndprun's flags
// do.
type JobSpec struct {
	// Snapshot names the registry entry to run against.
	Snapshot string `json:"snapshot"`
	// Engine selects the execution model: "sim" (analytical simulator,
	// the default), "cluster" (concurrent actor cluster), or "serial"
	// (reference implementation).
	Engine string `json:"engine,omitempty"`
	// Kernel and PRIters select the vertex program (PRIters is the
	// iteration budget of pagerank and ppr).
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
	// Aggregation pins in-network aggregation; nil keeps the default
	// (on). Only disaggregated-ndp and the cluster have a switch.
	Aggregation *bool `json:"aggregation,omitempty"`
	// TreeFanIn / ChannelDepth shape the concurrent cluster's switches
	// and links.
	TreeFanIn    int `json:"treefanin,omitempty"`
	ChannelDepth int `json:"chandepth,omitempty"`
	// Workers caps the executor's worker pool.
	Workers int `json:"workers,omitempty"`
}

// Engine selector values.
const (
	EngineSim     = core.EngineSim
	EngineCluster = core.EngineCluster
	EngineSerial  = core.EngineSerial
)

// Normalize fills defaults in place and validates every name against
// the same resolvers the CLIs use. A normalized spec spells out every
// default, the form JobInfo echoes; two specs that mean the same run may
// still differ, in an alias or a field their engine does not read, and
// share one cache key (core.Spec.Canonical). Submit normalizes
// internally; callers running a spec offline (ExecuteSpec) normalize
// first so both sides resolve identically.
func (s *JobSpec) Normalize() error {
	if s.Snapshot == "" {
		return fmt.Errorf("spec: snapshot is required")
	}
	d := core.DefaultSpec()
	s.Engine = cmp.Or(s.Engine, d.Engine)
	s.Kernel = cmp.Or(s.Kernel, d.Kernel)
	s.PRIters = cmp.Or(s.PRIters, d.PRIters)
	s.Arch = cmp.Or(s.Arch, d.Arch)
	s.Partitions = cmp.Or(s.Partitions, d.Partitions)
	s.Computes = cmp.Or(s.Computes, d.Computes)
	s.Partitioner = cmp.Or(s.Partitioner, d.Partitioner)
	s.Seed = cmp.Or(s.Seed, d.Seed)
	s.Policy = cmp.Or(s.Policy, d.Policy)
	if err := s.Spec().Validate(); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	return nil
}

// Spec is the run a normalized JobSpec describes, on core's defaults for
// the knobs the wire does not carry: the one conversion from the wire.
func (s JobSpec) Spec() core.Spec {
	sp := core.DefaultSpec()
	sp.Engine, sp.Arch, sp.Kernel, sp.PRIters = s.Engine, s.Arch, s.Kernel, s.PRIters
	sp.Partitions, sp.Computes, sp.Partitioner, sp.Seed = s.Partitions, s.Computes, s.Partitioner, s.Seed
	sp.Policy, sp.TreeFanIn, sp.ChannelDepth, sp.Workers = s.Policy, s.TreeFanIn, s.ChannelDepth, s.Workers
	if s.Aggregation != nil {
		sp.Aggregation = *s.Aggregation
	}
	return sp
}

// cacheKey is the canonical identity of the run the spec describes on a
// given snapshot: the snapshot content digest plus the run's canonical
// form, which keeps only what can change the result's bytes (DESIGN.md,
// "Cache keying"). The digest names the graph, so one graph under two
// names is one key. Execution is deterministic, so equal keys imply
// byte-identical results, as the served oracle asserts.
func (s JobSpec) cacheKey(digest string) string {
	// core.Spec is plain data — strings, numbers and a fault plan of the
	// same — so Marshal cannot fail; the blank assignment keeps that a
	// compile-visible fact.
	b, _ := json.Marshal(s.Spec().Canonical())
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

// valuesBlock is how many values encodeValues packs per base64 call. It
// is a multiple of 3: 3 values are 24 bytes, which base64 writes as 32
// characters with no padding, so consecutive blocks read as the encoding
// of the whole. 48 values (384 bytes on the stack) encode a 16,384-value
// result ≈ 20% faster than 3 do.
const valuesBlock = 48

// valuesLen is the length of the base64 of n values.
func valuesLen(n int) int { return base64.StdEncoding.EncodedLen(8 * n) }

// encodeValues writes the base64 of vals' little-endian bits into dst,
// which is valuesLen(len(vals)) long, one block at a time: the bits never
// exist as one buffer.
func encodeValues(dst []byte, vals []float64) {
	var raw [8 * valuesBlock]byte
	for len(vals) > 0 {
		n := min(len(vals), valuesBlock)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		base64.StdEncoding.Encode(dst, raw[:8*n])
		dst, vals = dst[valuesLen(n):], vals[n:]
	}
}

// EncodeValues packs a float64 vector as base64 little-endian bits.
func EncodeValues(vals []float64) string {
	dst := make([]byte, valuesLen(len(vals)))
	encodeValues(dst, vals)
	return string(dst)
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
func ToWire(r *core.Result) *WireResult { return toWire(r, EncodeValues(r.Values)) }

// toWire is r's wire form with valuesB64 as its encoded values.
func toWire(r *core.Result, valuesB64 string) *WireResult {
	w := &WireResult{
		Engine:                 r.Engine,
		Kernel:                 r.Kernel,
		NumValues:              len(r.Values),
		ValuesB64:              valuesB64,
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

// valuesField is the values' key and an empty value as encoding/json
// writes them. It occurs once in a marshalled WireResult: a quote inside
// a JSON string is escaped, so no string value can contain it.
var valuesField = []byte(`"values_b64":""`)

// MarshalResult renders a result in the canonical byte form the service
// stores, caches, and serves: json.Marshal(ToWire(r)), byte for byte.
// encoding/json with fixed struct field order and no maps is
// deterministic, so equal results marshal to equal bytes — the invariant
// the served oracle and the result cache rest on.
func MarshalResult(r *core.Result) ([]byte, error) { return marshalResult(r, nil) }

// marshalResult is MarshalResult with r's values already encoded: nil
// encodes them here, and otherwise encoded is their encoding, as a kept
// trace holds it. encoding/json writes every field but the values, with
// their escaping, float formatting and errors; the values go straight
// into their place in the one buffer of the output's exact length.
// Base64's alphabet needs no JSON escaping, so the bytes are those
// json.Marshal would write.
func marshalResult(r *core.Result, encoded []byte) ([]byte, error) {
	head, err := json.Marshal(toWire(r, ""))
	if err != nil {
		return nil, err
	}
	at := bytes.Index(head, valuesField) + len(valuesField) - 1 // the closing quote
	n := valuesLen(len(r.Values))
	out := make([]byte, len(head)+n)
	copy(out, head[:at])
	if encoded == nil {
		encodeValues(out[at:at+n], r.Values)
	} else {
		copy(out[at:at+n], encoded)
	}
	copy(out[at+n:], head[at:])
	return out, nil
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
	// A simulator job whose execution the cache keeps only prices it: a
	// trace hit; a miss executes the kernel.
	CounterTraceCacheHits   = "serve.cache.trace.hits"
	CounterTraceCacheMisses = "serve.cache.trace.misses"
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
	CounterTracesEvicted      = "serve.cache.trace.evicted"
	CounterJobsExpired        = "serve.jobs.expired"
	CounterLookupsGone        = "serve.lookups.gone"
)

// counters is every serve counter resolved to its handle once, in
// NewManager: an event costs an atomic add, not a registry lookup.
type counters struct {
	submitted, completed, failed, cancelled             *metrics.Counter
	rejectedQueueFull, rejectedQuota, resultMisses      *metrics.Counter
	results, plans, traces                              memoKind
	waitsParked, waitsExpired, jobsExpired, lookupsGone *metrics.Counter
}

// newCounters resolves the names in the order counters declares them.
func newCounters(reg *metrics.Registry) counters {
	c := reg.Counter
	return counters{
		c(CounterJobsSubmitted), c(CounterJobsCompleted), c(CounterJobsFailed), c(CounterJobsCancelled),
		c(CounterRejectedQueueFull), c(CounterRejectedQuota), c(CounterResultCacheMisses),
		memoKind{hits: c(CounterResultCacheHits), evicted: c(CounterResultsEvicted), evictedBytes: c(CounterResultBytesEvicted)},
		memoKind{hits: c(CounterPlanCacheHits), misses: c(CounterPlanCacheMisses), evicted: c(CounterPlansEvicted)},
		memoKind{hits: c(CounterTraceCacheHits), misses: c(CounterTraceCacheMisses), evicted: c(CounterTracesEvicted)},
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
