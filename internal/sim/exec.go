package sim

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// PreStats is what an offload policy may observe before an iteration runs:
// frontier metadata and the previous iteration's full record. Everything
// here is cheaply available to a real runtime (the frontier is known, and
// degree sums are prefix-sum lookups), which is the paper's point in
// Section IV-D — these are the heuristic inputs.
type PreStats struct {
	Iteration int
	// FrontierSize and FrontierDegreeSum describe the pending traversal.
	FrontierSize      int64
	FrontierDegreeSum int64
	// Partitions is the memory-pool width.
	Partitions int
	// NumVertices is the graph's vertex count.
	NumVertices int
	// StaticPartialUpdates is the distinct (destination, partition) count
	// for a full-graph traversal — a load-time statistic that captures
	// destination skew, which per-iteration heuristics scale down by the
	// frontier's traversal volume.
	StaticPartialUpdates int64
	// SwitchAggregates reports that the engine's switch aggregates this
	// kernel's partial updates in flight, so an offloaded iteration is
	// charged AggregatedUpdateBytes; SwitchBufferEntries is that switch's
	// buffer (0 = unlimited).
	SwitchAggregates    bool
	SwitchBufferEntries int64
}

// OffloadPolicy decides, before each iteration, whether the traversal runs
// on the memory-node NDP units (true) or the hosts fetch edge lists
// (false).
type OffloadPolicy interface {
	Name() string
	Decide(s PreStats) bool
}

// PostHocPolicy marks policies that choose after both costs are measured
// (oracle baselines). Engines detect the marker and apply min-cost
// accounting instead of the pre-iteration decision.
type PostHocPolicy interface {
	OffloadPolicy
	PostHoc()
}

// PartitionPolicy decides offload independently for every memory node —
// the finer-grained control Section IV argues frameworks must expose
// ("which graph operations to offload", and where). Engines that support
// it call DecidePartitions instead of Decide; mask[p] selects offload for
// partition p. parts[p] is memory node p's view as a one-partition
// PreStats: its share of the frontier and its static partial count.
// Per-partition accounting does not aggregate, so SwitchAggregates is
// false in every view. The returned slice must have length len(parts).
type PartitionPolicy interface {
	OffloadPolicy
	DecidePartitions(parts []PreStats) []bool
}

// PartitionPostHocPolicy marks per-partition oracle accounting: each
// memory node independently picks its cheaper mechanism after the costs
// are measured.
type PartitionPostHocPolicy interface {
	OffloadPolicy
	PartitionPostHoc()
}

// AlwaysOffload offloads every iteration.
type AlwaysOffload struct{}

// Name implements OffloadPolicy.
func (AlwaysOffload) Name() string { return "always" }

// Decide implements OffloadPolicy.
func (AlwaysOffload) Decide(PreStats) bool { return true }

// NeverOffload never offloads (pure far-memory execution).
type NeverOffload struct{}

// Name implements OffloadPolicy.
func (NeverOffload) Name() string { return "never" }

// Decide implements OffloadPolicy.
func (NeverOffload) Decide(PreStats) bool { return false }

// execution is the accountant shared by the four architectures. It runs
// the kernel once on the kernel engine's Staged machine, gridded by the
// partition assignment — chunk p is memory node p, and chunk p's staged
// partials are the updates that node would emit — and turns each finished
// iteration the engine lends it into a Record: the partitioned counters
// first, then the architecture's bytes, time and energy (account). It
// scatters, merges and applies nothing itself.
type execution struct {
	g      *graph.Graph
	src    kernels.Source
	k      kernels.Kernel
	tr     kernels.Traits
	assign *partition.Assignment

	// account fills in the architecture-specific fields of each record.
	account func(rec *Record)
	// switchAggregates and switchBuffer are the switch as PreStats reports
	// it and offloadMoveBytes prices it (set by DisaggregatedNDP.Run).
	switchAggregates bool
	switchBuffer     int64
	// policy is asked for each iteration's offload decision, from what a
	// runtime knows before the iteration runs (PreStats).
	policy     OffloadPolicy
	partPolicy PartitionPolicy
	// workers caps the engine's worker pool (0 = GOMAXPROCS). Purely an
	// execution knob: every setting produces bit-identical Records and
	// values.
	workers int

	// Load-time statistics of (graph, assignment), from computeStatics.
	// crossDeg[v] counts v's out-edges that leave v's partition;
	// staticPartials is the full-frontier distinct (dst, partition) count
	// and staticPartialsPerPart its per-partition breakdown; mirrorCount
	// (nil unless asked for) is the per-vertex mirror count whose refresh
	// is the distributed broadcast volume.
	crossDeg              []int32
	staticPartials        int64
	staticPartialsPerPart []int64
	mirrorCount           []int32
	// cached marks vertices whose edge lists the hosts hold locally
	// (tiering); their traversals cost no interconnect bytes in
	// fetch-mode accounting.
	cached []bool
	// tier, when non-nil, models a host-local segment tier: each
	// iteration charges Record.FarMemoryBytes with the whole-segment
	// fetches the frontier's accesses miss on (TierConfig).
	tier *tierState

	// out collects the Records; the per-partition slices are record's
	// scratch, allocated once per run.
	out             *Run
	bytesPerPart    []int64
	opsPerPart      []float64
	partialsPerPart []int64
	pp              []PreStats
}

// newExecution validates inputs. A vertex-only view is refused here,
// before the static pass would index its absent edge array; the kernel's
// own requirements are the engine's to check.
func newExecution(g *graph.Graph, k kernels.Kernel, assign *partition.Assignment, account func(*Record), policy OffloadPolicy) (*execution, error) {
	src, err := kernels.InMemory(g)
	if err != nil {
		return nil, err
	}
	if err := assign.Validate(g); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = AlwaysOffload{}
	}
	e := &execution{g: g, src: src, k: k, tr: k.Traits(), assign: assign, account: account, policy: policy}
	e.partPolicy, _ = policy.(PartitionPolicy)
	return e, nil
}

// computeStatics takes the load-time statistics in one sweep over the
// edges in vertex order: crossDeg always, the static partial-update counts
// when partials is set (architectures whose policy sees them), the mirror
// counts when mirrors is set (distributed architectures). The last two
// count distinct (destination, partition) pairs — a pair is one static
// partial update, and one mirror of the destination when the partition is
// not its owner — so the sweep ORs each source's partition into a
// ⌈K/64⌉-word reach mask per destination, and one pass over the masks
// counts the pairs.
func (e *execution) computeStatics(partials, mirrors bool) {
	g, parts, P := e.g, e.assign.Parts, e.assign.K
	n := g.NumVertices()
	e.crossDeg = make([]int32, n)
	e.staticPartialsPerPart = make([]int64, P)
	words := 0
	if partials || mirrors {
		words = (P + 63) / 64
	}
	reached := make([]uint64, n*words)
	for v := 0; v < n; v++ {
		p := parts[v]
		at, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
		var cross int32
		for _, dst := range g.Neighbors(graph.VertexID(v)) {
			if parts[dst] != p {
				cross++
			}
			if words > 0 {
				reached[int(dst)*words+at] |= bit
			}
		}
		e.crossDeg[v] = cross
	}
	if words == 0 {
		return
	}
	if mirrors {
		e.mirrorCount = make([]int32, n)
	}
	for dst := 0; dst < n; dst++ {
		row := reached[dst*words : (dst+1)*words]
		var pairs int32
		for w, mask := range row {
			pairs += int32(bits.OnesCount64(mask))
			for ; mask != 0; mask &= mask - 1 {
				e.staticPartialsPerPart[w*64+bits.TrailingZeros64(mask)]++
			}
		}
		if mirrors {
			// Every reaching partition but the owner holds a mirror.
			own := uint(parts[dst])
			e.mirrorCount[dst] = pairs - int32(row[own>>6]>>(own&63)&1)
		}
	}
	for _, pairs := range e.staticPartialsPerPart {
		e.staticPartials += pairs
	}
}

// run executes the kernel to completion on the kernel engine, producing a
// Run with one Record per iteration. Push is forced: the counters are
// defined over the partial updates a scatter stages, and a pull iteration
// stages none. The engine's reduction tree is the grid — the partition
// assignment — so every Workers setting is bit-identical, and ctx is
// checked at every iteration boundary.
func (e *execution) run(ctx context.Context, engineName string) (*Run, error) {
	P := e.assign.K
	e.out = &Run{Engine: engineName, Kernel: e.k.Name()}
	e.bytesPerPart = make([]int64, P)
	e.opsPerPart = make([]float64, P)
	e.partialsPerPart = make([]int64, P)
	if e.partPolicy != nil {
		e.pp = make([]PreStats, P)
	}
	res, err := kernels.RunOn(ctx, e.src, e.k, kernels.Staged, kernels.Options{
		Workers:   e.workers,
		Direction: kernels.DirectionPush,
		Grid:      &kernels.Grid{Chunks: P, ChunkOf: e.assign.Parts, Observe: e.record},
	})
	if err != nil {
		return nil, err
	}
	e.out.Result = res
	e.out.finalize()
	return e.out, nil
}

// record is the engine's per-iteration observer: it counts what memory
// node p traversed (chunk p's frontier slice, in bucket order — the order
// the float ops sum and the tier's touch trace are defined in) and emitted
// (chunk p's partial updates), asks the policy for the decision those
// pre-iteration statistics imply, and finishes the Record in place.
func (e *execution) record(it *kernels.Iteration) {
	g, P := e.g, e.assign.K
	done := len(e.out.Records)
	e.out.Records = append(e.out.Records, Record{Iteration: it.Index, DistinctDsts: it.DistinctDsts})
	rec := &e.out.Records[done]
	for p := 0; p < P; p++ {
		front := it.Frontier(p)
		var degSum int64
		var ops float64
		for _, v := range front {
			deg := g.OutDegree(v)
			degSum += deg
			ops += float64(deg) * e.tr.FLOPsPerEdge
			rec.CrossEdges += int64(e.crossDeg[v])
			if e.cached != nil && e.cached[v] {
				rec.CachedEdgeBytes += deg * kernels.EdgeBytes
			}
			if e.tier != nil {
				rec.FarMemoryBytes += e.tier.touch(v)
			}
		}
		rec.FrontierSize += int64(len(front))
		rec.ActiveEdges += degSum
		e.bytesPerPart[p] = degSum * kernels.EdgeBytes
		e.opsPerPart[p] = ops
		if e.pp != nil {
			e.pp[p] = PreStats{
				FrontierSize:         int64(len(front)),
				FrontierDegreeSum:    degSum,
				Partitions:           1,
				NumVertices:          g.NumVertices(),
				StaticPartialUpdates: e.staticPartialsPerPart[p],
			}
		}
		e.partialsPerPart[p] = it.Partials(p)
		rec.PartialUpdates += it.Partials(p)
		rec.RemotePartialUpdates += it.RemotePartials(p)
	}

	pre := PreStats{
		Iteration:            it.Index,
		FrontierSize:         rec.FrontierSize,
		FrontierDegreeSum:    rec.ActiveEdges,
		Partitions:           P,
		NumVertices:          g.NumVertices(),
		StaticPartialUpdates: e.staticPartials,
		SwitchAggregates:     e.switchAggregates,
		SwitchBufferEntries:  e.switchBuffer,
	}
	var partMask []bool
	if e.partPolicy != nil {
		partMask = e.partPolicy.DecidePartitions(e.pp)
		rec.Offloaded = anyTrue(partMask)
	} else {
		rec.Offloaded = e.policy.Decide(pre)
	}

	applies := rec.DistinctDsts
	if e.tr.AllVerticesActive {
		applies = int64(g.NumVertices())
	}
	e.finishRecord(rec, applies, partMask, it.Next)
}

// finishRecord derives the byte quantities from the iteration counters,
// applies post-hoc policy overrides if present, and calls the engine's
// accounting hook.
func (e *execution) finishRecord(rec *Record, applies int64, partMask []bool, next *kernels.Frontier) {
	rec.NextFrontierSize = next.Count()
	rec.EdgeFetchBytes = rec.ActiveEdges * kernels.EdgeBytes
	rec.UpdateMoveBytes = rec.PartialUpdates * kernels.UpdateBytes
	rec.WritebackBytes = rec.NextFrontierSize * kernels.PropertyBytes
	rec.MirrorReduceBytes = rec.RemotePartialUpdates * kernels.UpdateBytes
	var broadcast int64
	if e.mirrorCount != nil {
		next.ForEach(func(v graph.VertexID) {
			broadcast += int64(e.mirrorCount[v])
		})
	}
	rec.MirrorBroadcastBytes = broadcast * kernels.UpdateBytes

	// Per-partition breakdown: each memory node's edge volume, partial
	// updates, and share of the property write-back.
	P := e.assign.K
	rec.PerPartition = make([]PartitionRecord, P)
	for p := 0; p < P; p++ {
		rec.PerPartition[p] = PartitionRecord{
			EdgeBytes:      e.bytesPerPart[p],
			PartialUpdates: e.partialsPerPart[p],
		}
	}
	next.ForEach(func(v graph.VertexID) {
		rec.PerPartition[e.assign.Parts[v]].Activated++
	})
	rec.MixedOracleBytes = 0
	for p := 0; p < P; p++ {
		rec.MixedOracleBytes += rec.PerPartition[p].MinCost()
	}

	switch e.policy.(type) {
	case PartitionPostHocPolicy:
		// Every memory node independently picks its cheaper mechanism.
		any := false
		for p := 0; p < P; p++ {
			off := rec.PerPartition[p].OffloadCost() < rec.PerPartition[p].EdgeBytes
			rec.PerPartition[p].Offloaded = off
			any = any || off
		}
		rec.Offloaded = any
	default:
		if _, ok := e.policy.(PostHocPolicy); ok {
			rec.Offloaded = e.offloadMoveBytes(rec) < rec.EdgeFetchBytes
		}
		// A partition policy's mask is per node; a global decision, post
		// hoc or not, reaches every partition, so a heterogeneous pool's
		// device gating sees it.
		for p := range rec.PerPartition {
			if partMask != nil {
				rec.PerPartition[p].Offloaded = p < len(partMask) && partMask[p]
			} else {
				rec.PerPartition[p].Offloaded = rec.Offloaded
			}
		}
	}
	rec.maxPartBytes = maxOf(e.bytesPerPart)
	rec.maxPartOps = maxOfF(e.opsPerPart)
	rec.Applies = applies
	e.account(rec)
}

// MixedMoveBytes sums each partition's cost under its recorded decision.
func (r *Record) MixedMoveBytes() int64 {
	var total int64
	for _, p := range r.PerPartition {
		if p.Offloaded {
			total += p.OffloadCost()
		} else {
			total += p.EdgeBytes
		}
	}
	return total
}

func anyTrue(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func maxOfF(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// offloadMoveBytes is what an offloaded iteration moves across the
// compute-node boundary: its partial updates (aggregated when the switch
// aggregates) plus the property write-back. It prices from the record's
// counters, not from AggregatedMoveBytes, because the post-hoc oracle
// calls it before the accountant fills that field in.
func (e *execution) offloadMoveBytes(rec *Record) int64 {
	updates := rec.UpdateMoveBytes
	if e.switchAggregates {
		updates = AggregatedUpdateBytes(rec.PartialUpdates, rec.DistinctDsts, e.switchBuffer)
	}
	return updates + rec.WritebackBytes
}

// AggregatedUpdateBytes models the switch compressing a stream of
// partial updates to distinct destinations: with unlimited buffer
// (bufferEntries <= 0) the switch emits one update per distinct
// destination; with a bounded buffer, destinations beyond capacity pass
// through unaggregated at the stream's mean multiplicity (Section IV-C's
// buffer-capacity caveat). The accountant prices measured counters with
// it and the offload heuristic its estimated ones.
func AggregatedUpdateBytes(partials, distinct, bufferEntries int64) int64 {
	if distinct == 0 {
		return 0
	}
	if bufferEntries <= 0 || distinct <= bufferEntries {
		return distinct * kernels.UpdateBytes
	}
	meanMultiplicity := float64(partials) / float64(distinct)
	passThrough := float64(distinct-bufferEntries) * meanMultiplicity
	if legacyAggregationModel {
		// Seeded historical bug (see testhook.go): truncate toward zero
		// and skip the clamps, exactly as the pre-fix code did.
		return (bufferEntries + int64(passThrough)) * kernels.UpdateBytes
	}
	// Round half-up rather than truncating toward zero: truncation lost up
	// to one update's bytes per iteration. The modeled stream can never be
	// smaller than the buffered entries themselves nor larger than the
	// uncompressed stream, so clamp to [bufferEntries, partials].
	entries := bufferEntries + int64(math.Floor(passThrough+0.5))
	if entries < bufferEntries {
		entries = bufferEntries
	}
	if entries > partials {
		entries = partials
	}
	return entries * kernels.UpdateBytes
}
