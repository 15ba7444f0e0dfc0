package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
)

// Trace is one execution of a kernel, recorded as what every
// architecture prices: the kernel's result and, for each iteration and
// memory node, what the node traversed and emitted. It depends on the
// graph, the kernel, the partition assignment and the hosts' edge cache
// (ExecConfig), never on an architecture, a policy, a switch or a device,
// so one trace prices under all four engines (Engine.Price; a cached one
// under Disaggregated alone). Execute
// returns it complete and nothing changes it afterwards: any number of
// pricings may read it at once, and each Run's Result is the trace's own.
type Trace struct {
	kernel string
	tr     kernels.Traits
	result *kernels.Result

	numVertices, parts int
	cacheBytes         int64
	// staticPartials is the full-frontier distinct (destination,
	// partition) count and staticPerPart its per-partition breakdown —
	// the load-time statistics a policy reads (PreStats).
	staticPartials int64
	staticPerPart  []int64

	iters []iterTrace
	nodes []nodeTrace // parts per iteration, iteration-major
}

// iterTrace is one iteration as a whole.
type iterTrace struct {
	index           int
	distinctDsts    int64
	next            int64 // the next frontier's size
	broadcast       int64 // mirrors of the next frontier: the distributed refresh
	cachedEdgeBytes int64
}

// nodeTrace is what memory node p did in one iteration: its share of the
// frontier (in bucket order, the order its FLOPs sum in), the edges of it
// that leave p, the partial updates p's NDP unit would emit (and those of
// them for vertices p does not own), and the next-frontier vertices p
// owns.
type nodeTrace struct {
	frontier, degSum int64
	flops            float64
	cross            int64
	partials, remote int64
	activated        int64
}

// Size is what a kept trace holds, in bytes: the result's vectors and the
// counters (about 8 B a vertex plus a few hundred a memory node and
// iteration).
func (t *Trace) Size() int64 {
	r := t.result
	return int64(unsafe.Sizeof(*t)+unsafe.Sizeof(*r)) +
		8*int64(len(r.Values)+len(r.FrontierSizes)+len(r.ActiveEdges)+len(t.staticPerPart)) +
		int64(len(t.iters))*int64(unsafe.Sizeof(iterTrace{})) +
		int64(len(t.nodes))*int64(unsafe.Sizeof(nodeTrace{}))
}

// ExecConfig is what an execution depends on besides the graph and the
// kernel.
type ExecConfig struct {
	// Assign is the grid: chunk p is memory node p.
	Assign *partition.Assignment
	// CacheBytes sizes the hosts' edge cache (FAM-Graph-style tiering):
	// the highest-out-degree vertices' edge lists are pinned on the
	// hosts, greedily by degree until the budget is exhausted (cacheMask),
	// and their traversals cost no interconnect bytes. 0 disables it. Only
	// Disaggregated prices a trace executed with a cache.
	CacheBytes int64
	// Workers caps the engine's worker pool (0 = GOMAXPROCS). Purely an
	// execution knob: every setting records a bit-identical trace.
	Workers int
}

// Execute runs the kernel to completion once on the kernel engine's
// Staged machine, gridded by the partition assignment — chunk p is memory
// node p, and chunk p's staged partials are the updates that node would
// emit — and records each finished iteration the engine lends it. Push is
// forced: the counters are defined over the partial updates a scatter
// stages, and a pull iteration stages none. The reduction tree is the
// grid, so every Workers setting is bit-identical, and ctx is checked at
// every iteration boundary. src may be an in-memory graph or an
// out-of-core container: the static pass and the engine both read its
// edges through Pin, so a vertex-only view ends in graph.ErrVertexView;
// the kernel's own requirements are the engine's to check.
func Execute(ctx context.Context, src kernels.Source, k kernels.Kernel, cfg ExecConfig) (*Trace, error) {
	assign := cfg.Assign
	if assign == nil {
		return nil, fmt.Errorf("sim: nil partition assignment")
	}
	g := src.Vertices()
	if err := assign.Validate(g); err != nil {
		return nil, err
	}
	t := &Trace{
		kernel: k.Name(), tr: k.Traits(),
		numVertices: g.NumVertices(), parts: assign.K,
		cacheBytes: max(cfg.CacheBytes, 0),
	}
	st, err := computeStatics(src, assign)
	if err != nil {
		return nil, err
	}
	x := &recorder{t: t, g: g, parts: assign.Parts, statics: st, cached: cacheMask(g, t.cacheBytes)}
	t.staticPartials, t.staticPerPart = st.partials, st.perPart
	res, err := kernels.RunOn(ctx, src, k, kernels.Staged, kernels.Options{
		Workers:   cfg.Workers,
		Direction: kernels.DirectionPush,
		Grid:      &kernels.Grid{Chunks: assign.K, ChunkOf: assign.Parts, Observe: x.observe},
	})
	if err != nil {
		return nil, err
	}
	t.result = res
	return t, nil
}

// statics are the load-time statistics of (graph, assignment).
// crossDeg[v] counts v's out-edges that leave v's partition; partials is
// the full-frontier distinct (destination, partition) count and perPart
// its per-partition breakdown; mirrors[v] is v's mirror count, whose
// refresh is the distributed broadcast volume.
type statics struct {
	crossDeg []int32
	partials int64
	perPart  []int64
	mirrors  []int32
}

// computeStatics takes the load-time statistics in one sweep over the
// edges in vertex order, pinning each of src's segments once. The
// partial and mirror counts count distinct (destination, partition)
// pairs — a pair is one static partial update, and one mirror of the
// destination when the partition is not its owner — so the sweep ORs
// each source's partition into a ⌈K/64⌉-word reach mask per destination,
// and one pass over the masks counts the pairs.
func computeStatics(src kernels.Source, assign *partition.Assignment) (s statics, err error) {
	parts, P := assign.Parts, assign.K
	off := src.Vertices().Offsets()
	n := src.NumVertices()
	s = statics{crossDeg: make([]int32, n), perPart: make([]int64, P), mirrors: make([]int32, n)}
	words := (P + 63) / 64
	reached := make([]uint64, n*words)
	var seg graph.Segment
	for v := 0; v < n; v++ {
		if !seg.Contains(graph.VertexID(v)) {
			seg.Release()
			if seg, err = src.Pin(graph.VertexID(v)); err != nil {
				return statics{}, err
			}
		}
		p := parts[v]
		at, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
		var cross int32
		for _, dst := range seg.Edges[off[v]-seg.Base : off[v+1]-seg.Base] {
			if parts[dst] != p {
				cross++
			}
			reached[int(dst)*words+at] |= bit
		}
		s.crossDeg[v] = cross
	}
	seg.Release()
	for dst := 0; dst < n; dst++ {
		row := reached[dst*words : (dst+1)*words]
		var pairs int32
		for w, mask := range row {
			pairs += int32(bits.OnesCount64(mask))
			for ; mask != 0; mask &= mask - 1 {
				s.perPart[w*64+bits.TrailingZeros64(mask)]++
			}
		}
		// Every reaching partition but the owner holds a mirror.
		own := uint(parts[dst])
		s.mirrors[dst] = pairs - int32(row[own>>6]>>(own&63)&1)
	}
	for _, pairs := range s.perPart {
		s.partials += pairs
	}
	return s, nil
}

// recorder is Execute's per-iteration observer and the state it reads.
type recorder struct {
	t       *Trace
	g       *graph.Graph
	parts   []int32
	statics statics
	// cached marks vertices whose edge lists the hosts hold locally.
	cached []bool
	// it and nodes are the iteration being recorded, for activate.
	it    *iterTrace
	nodes []nodeTrace
}

// observe counts what memory node p traversed (chunk p's frontier slice,
// in bucket order — the order the float ops sum in) and emitted (chunk
// p's partial updates), then walks the next frontier for each node's
// activations and the mirrors the refresh reaches.
func (x *recorder) observe(it *kernels.Iteration) {
	t, g := x.t, x.g
	t.iters = append(t.iters, iterTrace{index: it.Index, distinctDsts: it.DistinctDsts, next: it.Next.Count()})
	x.it = &t.iters[len(t.iters)-1]
	at := len(t.nodes)
	t.nodes = append(t.nodes, make([]nodeTrace, t.parts)...)
	x.nodes = t.nodes[at:]
	for p := range x.nodes {
		nd := &x.nodes[p]
		front := it.Frontier(p)
		for _, v := range front {
			deg := g.OutDegree(v)
			nd.degSum += deg
			nd.flops += float64(deg) * t.tr.FLOPsPerEdge
			nd.cross += int64(x.statics.crossDeg[v])
			if x.cached != nil && x.cached[v] {
				x.it.cachedEdgeBytes += deg * kernels.EdgeBytes
			}
		}
		nd.frontier = int64(len(front))
		nd.partials = it.Partials(p)
		nd.remote = it.RemotePartials(p)
	}
	it.Next.ForEach(x.activate)
}

// activate credits one next-frontier vertex to its owner and its mirrors
// to the refresh.
func (x *recorder) activate(v graph.VertexID) {
	x.nodes[x.parts[v]].activated++
	x.it.broadcast += int64(x.statics.mirrors[v])
}

// pricing is what one architecture adds to a trace to make its Run: the
// offload policy asked for each iteration's Choice, the switch as
// PreStats reports it and offloadMoveBytes prices it, which memory nodes'
// devices can run the kernel near data, whether the master→mirror refresh
// is charged (distributed architectures), and account, which fills in the
// architecture's bytes, time and energy.
type pricing struct {
	engine           string
	policy           OffloadPolicy
	switchAggregates bool
	switchBuffer     int64
	// gate masks every node's choice by its device (gate[p] false: node p
	// fetches); nil when every device runs the kernel. A gated pool is
	// priced node by node.
	gate    []bool
	mirrors bool
	// account prices one decided Record; perNode reports that its nodes
	// were decided (or gated) one by one.
	account func(rec *Record, perNode bool)
}

// check refuses a trace this engine cannot price: a topology that does
// not validate, a trace gridded for another pool width, or a trace
// executed with a host edge cache under an engine that does not price one
// (pricesCache is false).
func (t *Trace) check(topo Topology, pricesCache bool) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if t.parts != topo.MemoryNodes {
		return fmt.Errorf("sim: trace has %d parts, topology has %d memory nodes", t.parts, topo.MemoryNodes)
	}
	if t.cacheBytes > 0 && !pricesCache {
		return fmt.Errorf("sim: trace executed with a %d-byte host edge cache; only disaggregated prices one", t.cacheBytes)
	}
	return nil
}

// run prices every iteration of t into one Record: the counters, the
// byte quantities they imply, the policy's Choice from the iteration's
// View, each memory node's decision under it, and the architecture's
// account. It reads t and writes only the Run.
func (pr *pricing) run(t *Trace) *Run {
	P := t.parts
	out := &Run{Engine: pr.engine, Kernel: t.kernel, Result: t.result, Records: make([]Record, len(t.iters))}
	parts := make([]PartitionRecord, len(t.nodes))
	view := &View{t: t, pr: pr}
	for i, it := range t.iters {
		rec := &out.Records[i]
		*rec = Record{
			Iteration:       it.index,
			DistinctDsts:    it.distinctDsts,
			CachedEdgeBytes: it.cachedEdgeBytes,
			PerPartition:    parts[i*P : (i+1)*P : (i+1)*P],
		}
		nodes := t.nodes[i*P : (i+1)*P]
		for p, nd := range nodes {
			rec.FrontierSize += nd.frontier
			rec.ActiveEdges += nd.degSum
			rec.CrossEdges += nd.cross
			rec.PartialUpdates += nd.partials
			rec.RemotePartialUpdates += nd.remote
			edgeBytes := nd.degSum * kernels.EdgeBytes
			rec.PerPartition[p] = PartitionRecord{EdgeBytes: edgeBytes, PartialUpdates: nd.partials, Activated: nd.activated}
			if edgeBytes > rec.maxPartBytes {
				rec.maxPartBytes = edgeBytes
			}
			if nd.flops > rec.maxPartOps {
				rec.maxPartOps = nd.flops
			}
		}
		rec.Applies = rec.DistinctDsts
		if t.tr.AllVerticesActive {
			rec.Applies = int64(t.numVertices)
		}
		rec.NextFrontierSize = it.next
		if pr.mirrors {
			rec.MirrorBroadcastBytes = it.broadcast * kernels.UpdateBytes
		}
		rec.EdgeFetchBytes = rec.ActiveEdges * kernels.EdgeBytes
		rec.UpdateMoveBytes = rec.PartialUpdates * kernels.UpdateBytes
		rec.WritebackBytes = rec.NextFrontierSize * kernels.PropertyBytes
		rec.MirrorReduceBytes = rec.RemotePartialUpdates * kernels.UpdateBytes

		view.Pool = PreStats{
			FrontierSize:         rec.FrontierSize,
			FrontierDegreeSum:    rec.ActiveEdges,
			Partitions:           P,
			NumVertices:          t.numVertices,
			StaticPartialUpdates: t.staticPartials,
			SwitchAggregates:     pr.switchAggregates,
			SwitchBufferEntries:  pr.switchBuffer,
		}
		view.nodes, view.rec = nodes, rec
		c := pr.policy.Choose(view)
		// The iteration offloaded when any node did.
		for p := range rec.PerPartition {
			off := c.Offload
			if c.Nodes != nil {
				off = p < len(c.Nodes) && c.Nodes[p]
			}
			off = off && (pr.gate == nil || pr.gate[p])
			rec.PerPartition[p].Offloaded = off
			rec.Offloaded = rec.Offloaded || off
		}
		pr.account(rec, c.Nodes != nil || pr.gate != nil)
	}
	out.finalize()
	return out
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

// offloadMoveBytes is what an offloaded iteration moves across the
// compute-node boundary: its partial updates (aggregated when the switch
// aggregates) plus the property write-back. It prices from the record's
// counters, not from AggregatedMoveBytes, because Oracle calls it before
// the accountant fills that field in.
func (pr *pricing) offloadMoveBytes(rec *Record) int64 {
	updates := rec.UpdateMoveBytes
	if pr.switchAggregates {
		updates = AggregatedUpdateBytes(rec.PartialUpdates, rec.DistinctDsts, pr.switchBuffer)
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
