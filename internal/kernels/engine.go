package kernels

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the kernel engine: the one Traverse/Apply/Update loop
// behind RunOn and its in-memory shorthands RunSerial, RunSerialWith and
// Run.
//
// Four independent axes are generalized here:
//
//   - Storage. The engine reads a Source: a resident vertex side plus an
//     edge list lent in pinned segments. A push loop keeps a current
//     segment and asks the source for another only when the frontier
//     leaves it — once per run over an in-memory CSR (one segment, never
//     released), once per segment crossing over an out-of-core container.
//     The engine owns pin lifetime: every segment it holds is released
//     before RunOn returns, on every path. A fetch error latches, ends
//     the iteration and is returned as the source typed it.
//
//   - Direction. Push iterations scatter the frontier's out-edges (the
//     paper's Traverse). Pull iterations scan candidate destinations and
//     probe their in-neighbors on the cached transpose, stopping early
//     once the aggregate saturates (GatherKernel.GatherDone) — Beamer's
//     bottom-up step generalized from BFS to every kernel with an exact
//     min/max aggregate. Because pull visits the same contribution set
//     push would, and min/max are order-independent in float64, the two
//     directions produce bit-identical Results; only the EdgesInspected
//     telemetry differs, which is the point. Pull needs in-edges, so it
//     is chosen only over a source that reports them (InAdjacency), and
//     under DirectionAuto only when it provably inspects fewer edges than
//     the push it replaces (prepare).
//
//   - Edge path. A kernel declares its per-edge datapath (Traits.Edge,
//     Traits.Agg) instead of implementing it, so the four edge loops —
//     pushSerial, pushChunk, mergeChunks, pullRange — call the kernel
//     once per source (Emit) and run every edge as plain arithmetic on
//     local slices, switched on two loop-invariant operator values. The
//     inlined forms are AggOp.Reduce and EdgeOp.Combine bit for bit
//     (reduceMin, reduceMax).
//
//   - Parallelism. The staged machine partitions each phase over a grid
//     of C chunks, claimed by a persistent worker pool off an atomic
//     cursor. Each chunk stages a compact pre-aggregated partial list; a
//     single-threaded merge folds the lists in chunk order 0..C-1. The
//     reduction tree depends only on the chunk grid — never on the
//     worker count or goroutine schedule — so Run is bit-identical at
//     every Workers setting.
//
//   - Grid. By default the grid cuts each iteration's frontier into
//     engineChunks equal slices. Options.Grid cuts it by owner instead —
//     vertex v always scatters in chunk ChunkOf[v] — which makes a chunk
//     a memory node and its partial list that node's update stream, and
//     lends every finished iteration to one observer. internal/sim's four
//     architectures are such observers: they count, the engine executes.
//
// Steady-state iterations allocate nothing: all buffers live in the
// engine struct and are reused across iterations (gated by
// TestEngineAllocGate).

// Direction selects the traversal direction of the kernel engine.
type Direction int

const (
	// DirectionAuto switches per iteration. Beamer's heuristic names the
	// candidates — the frontier's out-edge volume exceeds the remaining
	// unexplored volume divided by alpha and the frontier holds more than
	// 1/beta of the vertices — and a candidate pulls only if the in-edges
	// of every vertex a pull would scan number fewer than the frontier's
	// out-edges, so an auto run never inspects more edges than forced
	// push. Kernels without a GatherKernel implementation, and
	// fixed-point kernels whose frontier is always the full vertex set,
	// always push.
	DirectionAuto Direction = iota
	// DirectionPush always scatters along frontier out-edges.
	DirectionPush
	// DirectionPull always gathers along in-edges; requires the kernel
	// to implement GatherKernel and the source to implement InAdjacency.
	DirectionPull
)

// String returns the direction name as accepted by CLI flags.
func (d Direction) String() string {
	switch d {
	case DirectionAuto:
		return "auto"
	case DirectionPush:
		return "push"
	case DirectionPull:
		return "pull"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// DefaultAlpha and DefaultBeta are the conventional direction-switch
// thresholds (Beamer et al.).
const (
	DefaultAlpha = 14
	DefaultBeta  = 24
)

// engineChunks is the width of the staged machine's default chunk grid.
// A grid's width bounds both the merge fan-in and the useful worker
// count, and must not depend on the worker count — the grid is the
// reduction tree.
const engineChunks = 64

// Machine names one of the engine's two iteration machines.
type Machine int

const (
	// Serial is the reference machine: it aggregates directly per
	// destination in traversal order (the float-sum association golden
	// tests pin) and ignores Options.Workers.
	Serial Machine = iota
	// Staged is the chunk-staged parallel machine. Min/max kernels are
	// bit-identical to Serial; float sums are reassociated only by the
	// fixed chunk grid, so the full Result is bit-identical at every
	// Workers setting, including Workers=1.
	Staged
)

// Options configures a kernel engine run.
type Options struct {
	// Workers sets the Staged machine's worker-pool width (0 selects
	// GOMAXPROCS, capped at the chunk-grid width). Results are
	// bit-identical for every setting. The Serial machine ignores it.
	Workers int
	// Grid, when non-nil, replaces the Staged machine's default chunk
	// grid. The Serial machine ignores it.
	Grid *Grid
	// Direction selects push, pull, or per-iteration auto switching.
	Direction Direction
	// Alpha and Beta tune the auto switch; values <= 0 select
	// DefaultAlpha and DefaultBeta.
	Alpha, Beta float64
}

// Grid cuts every iteration's frontier by owner instead of into equal
// slices: whenever vertex v is active it scatters in chunk ChunkOf[v],
// after every earlier frontier vertex of that chunk. Float sums are
// reassociated by the grid, so a Result is bit-identical across Workers
// settings under one grid, not across grids; min/max kernels are
// bit-identical under every grid.
type Grid struct {
	// Chunks is the grid width; every ChunkOf[v] lies in [0, Chunks) and
	// ChunkOf covers every vertex.
	Chunks  int
	ChunkOf []int32
	// Observe, when non-nil, is called on the engine's goroutine once per
	// finished iteration — after the update phase, with the next frontier
	// final. The Iteration and everything reached through it belong to
	// the engine: read-only, and invalid once Observe returns.
	Observe func(*Iteration)
}

// Iteration is the view of one finished iteration lent to Grid.Observe.
type Iteration struct {
	// Index is the iteration number, from 0.
	Index int
	// Pull reports a pull iteration, which stages no partial updates and
	// counts no DistinctDsts.
	Pull bool
	// DistinctDsts counts the destinations that received at least one
	// partial: the merge's first touches.
	DistinctDsts int64
	// Next is the frontier the next iteration will traverse.
	Next *Frontier

	e *engine
}

// Frontier returns chunk c's slice of this iteration's frontier, in
// frontier order.
func (it *Iteration) Frontier(c int) []graph.VertexID { return it.e.chunkFrontier(c) }

// Partials returns the number of partial updates chunk c staged: one per
// distinct destination its frontier slice reached. RemotePartials counts
// those among them whose destination another chunk owns — the updates
// that would leave memory node c for a peer.
func (it *Iteration) Partials(c int) int64 {
	if it.Pull {
		return 0
	}
	return int64(len(it.e.chunkUpd[c]))
}

// RemotePartials: see Partials.
func (it *Iteration) RemotePartials(c int) int64 {
	if it.Pull {
		return 0
	}
	return it.e.remotePerChunk[c]
}

// stagedUpdate is one staged partial: the pre-aggregated contribution a
// single chunk produced for one destination this iteration.
type stagedUpdate struct {
	dst graph.VertexID
	val float64
}

// pushScratch is one worker's dense per-destination accumulator. seen
// stamps a destination as reached by the chunk being pushed, acc holds its
// running partial, and touched lists the chunk's destinations in first-
// touch order (capacity n+1: the edge loop writes the slot before it knows
// whether to keep it). Between chunks every acc entry rests at the reduce
// operator's identity, so an edge reduces into it unconditionally — no
// first-touch branch. The stamp is the worker's own claim count — unique
// per chunk within this scratch, which is all deduplication needs, and
// never 0 — so one scratch serves every chunk the worker claims without
// clearing, and freshly zeroed memory reads as "unseen".
type pushScratch struct {
	seen    []uint32
	acc     []float64
	touched []graph.VertexID
	claims  uint32
}

// claim starts a chunk: it returns the stamp that marks this chunk's
// destinations. The count wrapping to 0 after 2^32 claims would make stale
// stamps look fresh, so the scratch is wiped then.
func (s *pushScratch) claim() uint32 {
	if s.claims++; s.claims == 0 {
		clear(s.seen)
		s.claims = 1
	}
	return s.claims
}

// restIdentity is the value op leaves every other operand unchanged by,
// NaN aside: what a pushScratch accumulator rests at. It is the engine's
// constant, not Kernel.Identity() — a kernel may declare any value there.
func restIdentity(op AggOp) float64 {
	switch op {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	}
	return math.Copysign(0, -1) // -0 + u is u, +0 and -0 included
}

// engine is the reusable working set of the kernel iteration machine:
// every buffer the loop touches, allocated once so the steady-state
// iteration allocates nothing.
type engine struct {
	src   Source
	g     *graph.Graph // src.Vertices()
	in    InAdjacency
	k     Kernel
	gk    GatherKernel
	sk    StatefulKernel
	hasIn bool
	hasGK bool
	hasSK bool
	tr    Traits
	n     int

	// staged selects the Staged machine; false is Serial.
	staged bool
	// C is the chunk-grid width (staged mode).
	C int

	dir         Direction
	alpha, beta float64

	values   []float64
	frontier *Frontier
	spare    *Frontier
	res      *Result

	agg      []float64
	has      []bool
	identity float64

	// tpose caches the source's transpose locally; asked for on the
	// first pull iteration (an in-memory graph caches it across engines
	// and runs).
	tpose *graph.Graph

	// cur is the serial push loop's current segment, held across
	// iterations until the frontier leaves it or the run closes. err
	// latches the first segment-fetch failure.
	cur graph.Segment
	err error

	// Per-iteration prepared state.
	iter          int
	pull          bool
	frontierEdges int64
	remaining     int64
	inspected     int64

	// Staged-mode working set. The frontier is materialized once per
	// iteration: into active, which the default grid cuts into C equal
	// slices, or — under an ownership grid (chunkOf non-nil) — straight
	// into one bucket per chunk. Pull and apply cut the vertex range.
	// distinct counts the merge's first touches, for view.
	active            []graph.VertexID
	chunkOf           []int32
	buckets           [][]graph.VertexID
	remotePerChunk    []int64
	distinct          int64
	observe           func(*Iteration)
	view              Iteration
	scratch           []pushScratch
	chunkUpd          [][]stagedUpdate
	inspectedPerChunk []int64 // a pull's probes per chunk; before that, a candidate's gatherVolume
	activatedPerChunk [][]graph.VertexID
	residualPerChunk  []float64
	errPerChunk       []error

	pool      *workerPool
	pushTask  func(worker, c int)
	pullTask  func(worker, c int)
	boundTask func(worker, c int)
	applyTask func(worker, c int)
}

// RunOn executes the kernel on machine m, reading the graph from src. It
// checks ctx at every iteration boundary. Every other way to run a
// kernel for real — RunSerial, RunSerialWith, Run, core's serial and
// out-of-core engines — is a call to this function.
func RunOn(ctx context.Context, src Source, k Kernel, m Machine, opt Options) (*Result, error) {
	e, err := newEngine(src, k, opt, m == Staged)
	if err != nil {
		return nil, err
	}
	defer e.close()
	return e.run(ctx)
}

// Run executes the kernel on the Staged machine over an in-memory graph.
func Run(g *graph.Graph, k Kernel, opt Options) (*Result, error) {
	return runInMemory(g, k, Staged, opt)
}

// runInMemory serves the entry points whose kept signatures carry
// neither a context nor a source.
func runInMemory(g *graph.Graph, k Kernel, m Machine, opt Options) (*Result, error) {
	src, err := InMemory(g)
	if err != nil {
		return nil, err
	}
	return RunOn(context.TODO(), src, k, m, opt)
}

// newEngine validates inputs and builds the machine. Per-worker push
// scratch rides on one flat arena per array, so the setup loop assembles
// slice views instead of allocating per worker.
func newEngine(src Source, k Kernel, opt Options, staged bool) (*engine, error) {
	if err := CheckGraph(src, k); err != nil {
		return nil, err
	}
	g := src.Vertices()
	e := &engine{
		src: src, g: g, k: k,
		tr:     k.Traits(),
		n:      g.NumVertices(),
		staged: staged,
		dir:    opt.Direction,
		alpha:  opt.Alpha,
		beta:   opt.Beta,
	}
	if e.alpha <= 0 {
		e.alpha = DefaultAlpha
	}
	if e.beta <= 0 {
		e.beta = DefaultBeta
	}
	e.in, e.hasIn = src.(InAdjacency)
	e.gk, e.hasGK = k.(GatherKernel)
	e.sk, e.hasSK = k.(StatefulKernel)
	switch opt.Direction {
	case DirectionAuto, DirectionPush:
	case DirectionPull:
		if !e.hasGK {
			return nil, fmt.Errorf("kernels: %s does not implement GatherKernel; pull traversal unavailable", k.Name())
		}
		if !e.hasIn {
			return nil, fmt.Errorf("kernels: the source serves no in-adjacency; pull traversal unavailable")
		}
	default:
		return nil, fmt.Errorf("kernels: unknown direction %d", int(opt.Direction))
	}
	n := e.n
	e.values = make([]float64, n)
	for v := 0; v < n; v++ {
		e.values[v] = k.InitialValue(g, graph.VertexID(v))
	}
	e.frontier = NewFrontier(n)
	e.spare = NewFrontier(n)
	if init := k.InitialFrontier(g); init == nil {
		e.frontier.ActivateAll()
	} else {
		for _, v := range init {
			e.frontier.Activate(v)
		}
	}
	e.res = &Result{Values: e.values}
	e.agg = make([]float64, n)
	e.has = make([]bool, n)
	e.identity = k.Identity()
	e.remaining = g.NumEdges()
	if !staged {
		return e, nil
	}

	e.C = engineChunks
	if grid := opt.Grid; grid != nil {
		if grid.Chunks < 1 || len(grid.ChunkOf) != n {
			return nil, fmt.Errorf("kernels: grid of %d chunks covers %d vertices, graph has %d", grid.Chunks, len(grid.ChunkOf), n)
		}
		bad, sizes := -1, make([]int, grid.Chunks)
		for v, c := range grid.ChunkOf {
			if c < 0 || int(c) >= grid.Chunks {
				bad = v
				break
			}
			sizes[c]++
		}
		if bad >= 0 {
			return nil, fmt.Errorf("kernels: vertex %d in chunk %d, out of [0,%d)", bad, grid.ChunkOf[bad], grid.Chunks)
		}
		e.C, e.chunkOf, e.observe = grid.Chunks, grid.ChunkOf, grid.Observe
		// A chunk's bucket never outgrows the vertices it owns, so the
		// buckets are cut from one backing array and never reallocate.
		e.buckets = make([][]graph.VertexID, e.C)
		backing := make([]graph.VertexID, n)
		for c, size := range sizes {
			e.buckets[c], backing = backing[:0:size], backing[size:]
		}
		e.remotePerChunk = make([]int64, e.C)
	}
	W := opt.Workers
	if W <= 0 {
		W = runtime.GOMAXPROCS(0)
	}
	if W > e.C {
		W = e.C
	}
	if e.chunkOf == nil {
		e.active = make([]graph.VertexID, 0, n)
	}
	e.scratch = make([]pushScratch, W)
	seen, acc, touched := make([]uint32, W*n), make([]float64, W*n), make([]graph.VertexID, W*(n+1))
	rest := restIdentity(e.tr.Agg)
	for i := range acc {
		acc[i] = rest
	}
	for w := range e.scratch {
		e.scratch[w] = pushScratch{seen: seen[w*n : (w+1)*n], acc: acc[w*n : (w+1)*n], touched: touched[w*(n+1) : (w+1)*(n+1)]}
	}
	e.chunkUpd = make([][]stagedUpdate, e.C)
	e.inspectedPerChunk = make([]int64, e.C)
	e.activatedPerChunk = make([][]graph.VertexID, e.C)
	e.residualPerChunk = make([]float64, e.C)
	e.errPerChunk = make([]error, e.C)
	e.pushTask = func(w, c int) { e.pushChunk(w, c) }
	e.pullTask = func(_, c int) {
		lo, hi := e.vtxChunk(c)
		e.inspectedPerChunk[c] = e.pullRange(lo, hi)
	}
	e.boundTask = func(_, c int) {
		lo, hi := e.vtxChunk(c)
		e.inspectedPerChunk[c] = e.gatherVolume(lo, hi)
	}
	e.applyTask = func(_, c int) { e.applyChunk(c) }
	if W > 1 {
		e.pool = newWorkerPool(W)
	}
	return e, nil
}

// vtxChunk bounds chunk c of the fixed vertex-range grid.
func (e *engine) vtxChunk(c int) (lo, hi int) {
	return e.n * c / e.C, e.n * (c + 1) / e.C
}

// chunkFrontier returns chunk c's slice of this iteration's frontier.
// Either grid depends on the frontier alone, never on the worker count.
func (e *engine) chunkFrontier(c int) []graph.VertexID {
	if e.chunkOf != nil {
		return e.buckets[c]
	}
	a := len(e.active)
	return e.active[a*c/e.C : a*(c+1)/e.C]
}

// close releases what a run still holds: the serial cursor's pin and the
// worker pool. RunOn defers it, so neither outlives the run on any path.
func (e *engine) close() {
	e.cur.Release()
	if e.pool != nil {
		e.pool.close()
	}
}

// run executes the kernel to completion, or to the first cancellation or
// segment-fetch error.
//
//perf:hot
func (e *engine) run(ctx context.Context) (*Result, error) {
	res, tr := e.res, e.tr
	for iter := 0; iter < tr.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.frontier.Count() == 0 {
			res.Converged = true
			break
		}
		e.prepare(iter)
		res.FrontierSizes = append(res.FrontierSizes, e.frontier.Count())
		e.traverse()
		if e.err != nil {
			return nil, e.err
		}
		res.ActiveEdges = append(res.ActiveEdges, e.frontierEdges)
		res.EdgesInspected += e.inspected
		if e.pull {
			res.PullIterations++
		} else {
			res.PushIterations++
		}
		res.Iterations++

		// Stateful kernels consume the frontier's pending state once the
		// traversal is complete, before any Apply of this iteration.
		if e.hasSK {
			e.frontier.ForEach(e.sk.OnScattered)
		}

		next, residual := e.apply()
		converged := tr.AllVerticesActive && tr.Epsilon > 0 && residual < tr.Epsilon
		if tr.AllVerticesActive && !converged {
			next.ActivateAll()
		}
		e.lend(next)
		if converged {
			res.Converged = true
			break
		}
		e.spare = e.frontier
		e.frontier = next
	}
	if !res.Converged && res.Iterations < tr.MaxIterations {
		res.Converged = true
	}
	return res, nil
}

// lend shows the grid's observer the iteration that just finished.
func (e *engine) lend(next *Frontier) {
	if e.observe == nil {
		return
	}
	e.view = Iteration{Index: e.iter, Pull: e.pull, DistinctDsts: e.distinct, Next: next, e: e}
	e.observe(&e.view)
}

// prepare computes the frontier's out-edge volume from the resident
// offsets (materializing the frontier for the staged machine), updates
// the remaining-volume estimate, and decides this iteration's direction.
// Only a gather kernel over a source with in-adjacency ever pulls. Under
// DirectionAuto, Beamer's rule — the frontier's out-edge volume exceeds
// remaining/alpha AND the frontier holds more than n/beta vertices — is
// the cheap filter that names a candidate, and pullInspectsLess makes the
// call.
func (e *engine) prepare(iter int) {
	e.iter = iter
	e.frontierEdges = 0
	g := e.g
	if e.chunkOf != nil {
		for c := range e.buckets {
			e.buckets[c] = e.buckets[c][:0]
		}
		e.frontier.ForEach(func(v graph.VertexID) {
			c := e.chunkOf[v]
			e.buckets[c] = append(e.buckets[c], v)
			e.frontierEdges += g.OutDegree(v)
		})
	} else if e.staged {
		e.active = e.active[:0]
		e.frontier.ForEach(func(v graph.VertexID) {
			e.active = append(e.active, v)
			e.frontierEdges += g.OutDegree(v)
		})
	} else {
		e.frontier.ForEach(func(v graph.VertexID) {
			e.frontierEdges += g.OutDegree(v)
		})
	}
	e.remaining -= e.frontierEdges
	if e.remaining < 0 {
		e.remaining = 0
	}
	switch {
	case e.dir == DirectionPush || !e.hasGK || !e.hasIn || e.tr.AllVerticesActive:
		e.pull = false
	case e.dir == DirectionPull:
		e.pull = true
	default:
		e.pull = float64(e.frontierEdges) > float64(e.remaining)/e.alpha &&
			float64(e.frontier.Count()) > float64(e.n)/e.beta &&
			e.pullInspectsLess()
	}
	if e.pull {
		e.needTranspose()
	}
}

// needTranspose fetches the source's transpose on first use.
func (e *engine) needTranspose() {
	if e.tpose == nil {
		e.tpose = e.in.Transpose()
	}
}

// pullInspectsLess is the exact half of the direction rule. A pull
// iteration probes the in-edges of every vertex GatherSkip does not
// excuse, all of them when no aggregate saturates early; it is chosen only
// if that volume is below the frontier's out-edge volume — what the push
// it replaces inspects. Beamer's test alone cannot promise that: its
// remaining-volume estimate reaches 0 on any kernel that re-activates
// vertices, after which every large frontier pulls (SSSP lost 15 of 27
// iterations that way, inspecting 2.5 edges for every one push would
// have). It costs at most one pass over the values per candidate iteration
// — chunk-parallel on the staged machine — and nothing when the filter
// says push.
func (e *engine) pullInspectsLess() bool {
	e.needTranspose()
	if !e.staged {
		return e.gatherVolume(0, e.n) < e.frontierEdges
	}
	e.runTasks(e.boundTask)
	var volume int64
	for _, v := range e.inspectedPerChunk {
		volume += v
	}
	return volume < e.frontierEdges
}

// gatherVolume sums the in-degrees of the vertices in [lo, hi) that a pull
// iteration would scan, giving up once the sum reaches the frontier's
// out-edge volume: past that the answer is push whatever the rest holds.
func (e *engine) gatherVolume(lo, hi int) int64 {
	gk, limit := e.gk, e.frontierEdges
	offsets := e.tpose.Offsets()
	var volume int64
	for v := lo; v < hi && volume < limit; v++ {
		if !gk.GatherSkip(e.values[v]) {
			volume += offsets[v+1] - offsets[v]
		}
	}
	return volume
}

// traverse clears the aggregation arrays and runs the chosen direction.
// ActiveEdges accounting stays the nominal frontier out-edge volume in
// both directions; EdgesInspected records the probes actually made.
//
//perf:hot
func (e *engine) traverse() {
	// Only a fixed-point kernel's Apply reads an aggregate nothing
	// touched; everywhere else a first touch stores, so has alone needs
	// the reset.
	if e.tr.AllVerticesActive {
		for i := range e.agg {
			e.agg[i] = e.identity
		}
	}
	clear(e.has)
	e.distinct = 0
	if e.pull {
		if e.staged {
			e.runTasks(e.pullTask)
			var inspected int64
			for c := 0; c < e.C; c++ {
				inspected += e.inspectedPerChunk[c]
			}
			e.inspected = inspected
		} else {
			e.inspected = e.pullRange(0, e.n)
		}
		return
	}
	e.inspected = e.frontierEdges
	if e.staged {
		e.runTasks(e.pushTask)
		for _, err := range e.errPerChunk {
			if err != nil {
				e.err = err
				return
			}
		}
		e.mergeChunks()
		return
	}
	e.pushSerial()
}

// pushSerial scatters the frontier's out-edges, aggregating directly per
// destination in traversal order — the serial reference semantics every
// other engine is validated against. A Pin failure latches into e.err
// and turns the remaining callbacks into no-ops (ForEach cannot stop
// early).
//
//perf:hot
func (e *engine) pushSerial() {
	g, k := e.g, e.k
	// Locals, so the per-edge loop keeps the slice headers and the two
	// operators in registers: a store through e.agg or e.has could alias e
	// itself, and the compiler would otherwise reload them from e for
	// every edge.
	values, agg, has := e.values, e.agg, e.has
	edge, op := e.tr.Edge, e.tr.Agg
	e.frontier.ForEach(func(v graph.VertexID) {
		if e.err != nil {
			return
		}
		if !e.cur.Contains(v) {
			e.cur.Release()
			if e.cur, e.err = e.src.Pin(v); e.err != nil {
				return
			}
		}
		base, ok := k.Emit(v, values[v], g.OutDegree(v))
		if !ok {
			return
		}
		lo, hi := g.EdgeRange(v)
		lo, hi = lo-e.cur.Base, hi-e.cur.Base
		nbrs := e.cur.Edges[lo:hi]
		var wts []float32
		if edge != EdgeCopy {
			wts = e.cur.Weights[lo:hi]
		}
		for i, dst := range nbrs {
			u := base
			switch edge {
			case EdgeAddWeight:
				u = base + float64(wts[i])
			case EdgeMinWeight:
				u = reduceMin(base, float64(wts[i]))
			}
			// The fold is computed on every edge, first touches included,
			// and a mask keeps u's bits where the slot was empty: the
			// first-touch test is a select, not a branch.
			r := agg[dst]
			switch op {
			case AggSum:
				r += u
			case AggMin:
				r = reduceMin(r, u)
			case AggMax:
				r = reduceMax(r, u)
			}
			m := b2u(has[dst]) - 1
			agg[dst] = math.Float64frombits(math.Float64bits(r)&^m | math.Float64bits(u)&m)
			has[dst] = true
		}
	})
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a zero-
// extension of the bool, with no branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// reduceMin is AggMin.Reduce — and EdgeMinWeight's Combine — without the
// call. The builtin min is math.Min wherever neither operand is NaN, -0
// below +0 included, and compiles to a few branch-free instructions; a
// NaN result sends the rare case to the definition, so the two agree on
// every input.
func reduceMin(a, b float64) float64 {
	m := min(a, b)
	if m != m {
		return math.Min(a, b)
	}
	return m
}

// reduceMax is AggMax.Reduce without the call; see reduceMin.
func reduceMax(a, b float64) float64 {
	m := max(a, b)
	if m != m {
		return math.Max(a, b)
	}
	return m
}

// pushChunk scatters one chunk of the frontier slice into the worker's
// dense accumulator, pre-aggregated per destination in traversal order,
// then drains it into the chunk's compact staged-partial list in first-
// touch order. It writes only its own chunk's outputs, so chunks can run
// on any worker in any order without changing a bit of the merged result.
// The chunk pins its own current segment and releases it before
// returning; a Pin failure lands in the chunk's error slot.
//
//perf:hot
func (e *engine) pushChunk(w, c int) {
	s := &e.scratch[w]
	seen, touched, stamp := s.seen, s.touched, s.claim()
	acc := s.acc[:len(seen)] // one bounds check per destination serves both
	g, k, values := e.g, e.k, e.values
	edge, op := e.tr.Edge, e.tr.Agg
	var cur graph.Segment
	nt := 0
	for _, v := range e.chunkFrontier(c) {
		if !cur.Contains(v) {
			cur.Release()
			if cur, e.errPerChunk[c] = e.src.Pin(v); e.errPerChunk[c] != nil {
				break
			}
		}
		base, ok := k.Emit(v, values[v], g.OutDegree(v))
		if !ok {
			continue
		}
		lo, hi := g.EdgeRange(v)
		lo, hi = lo-cur.Base, hi-cur.Base
		nbrs := cur.Edges[lo:hi]
		var wts []float32
		if edge != EdgeCopy {
			wts = cur.Weights[lo:hi]
		}
		for i, dst := range nbrs {
			u := base
			switch edge {
			case EdgeAddWeight:
				u = base + float64(wts[i])
			case EdgeMinWeight:
				u = reduceMin(base, float64(wts[i]))
			}
			// The slot is written before it is known to be kept, so the
			// first-touch test is an increment, not a branch.
			touched[nt] = dst
			fresh := seen[dst] != stamp
			if fresh {
				nt++
			}
			seen[dst] = stamp
			switch op {
			case AggSum:
				acc[dst] += u
			case AggMin:
				acc[dst] = reduceMin(acc[dst], u)
			case AggMax:
				acc[dst] = reduceMax(acc[dst], u)
			}
			// A partial is AggOp.Reduce folded from its first contribution.
			// Reducing that one into the identity yields it bit for bit
			// unless it is a NaN, which a sum quiets and min/max
			// canonicalise; then it is stored as it came.
			if u != u && fresh {
				acc[dst] = u
			}
		}
	}
	cur.Release()
	list := e.chunkUpd[c]
	if cap(list) < nt {
		list = make([]stagedUpdate, nt)
	}
	list = list[:nt]
	rest, chunkOf := restIdentity(op), e.chunkOf
	var remote int64
	for i, dst := range touched[:nt] {
		list[i] = stagedUpdate{dst: dst, val: acc[dst]}
		acc[dst] = rest
		if chunkOf != nil {
			// Nested, so the owner test compiles to a select: under a
			// locality partitioner it is a coin flip per partial.
			if owner := chunkOf[dst]; owner != int32(c) {
				remote++
			}
		}
	}
	e.chunkUpd[c] = list
	if chunkOf != nil {
		e.remotePerChunk[c] = remote
	}
}

// mergeChunks folds the staged chunk lists into the global accumulator
// in fixed chunk order 0..C-1 — the reduction tree that keeps parallel
// results bit-identical at every worker count.
//
//perf:hot
func (e *engine) mergeChunks() {
	agg, has, op := e.agg, e.has, e.tr.Agg
	var distinct int64
	for c := 0; c < e.C; c++ {
		for _, u := range e.chunkUpd[c] {
			if !has[u.dst] {
				agg[u.dst] = u.val
				has[u.dst] = true
				distinct++
				continue
			}
			switch op {
			case AggSum:
				agg[u.dst] += u.val
			case AggMin:
				agg[u.dst] = reduceMin(agg[u.dst], u.val)
			case AggMax:
				agg[u.dst] = reduceMax(agg[u.dst], u.val)
			}
		}
	}
	e.distinct = distinct
}

// pullRange gathers destinations [lo, hi): each unsettled vertex probes
// its in-neighbors on the cached transpose for frontier members,
// breaking as soon as the aggregate saturates. Writes are per-
// destination and the scan order per destination is fixed, so the pull
// phase is trivially chunk-parallel and bit-identical to its serial
// form.
//
//perf:hot
func (e *engine) pullRange(lo, hi int) int64 {
	g, k, gk := e.g, e.k, e.gk
	values, frontier := e.values, e.frontier
	edge, op := e.tr.Edge, e.tr.Agg
	tp := e.tpose
	inEdges, inWeights := tp.Edges(), tp.Weights()
	var inspected int64
	for v := lo; v < hi; v++ {
		if gk.GatherSkip(values[v]) {
			continue
		}
		elo, ehi := tp.EdgeRange(graph.VertexID(v))
		srcs := inEdges[elo:ehi]
		var wts []float32
		if edge != EdgeCopy {
			wts = inWeights[elo:ehi]
		}
		// The running aggregate stays in a register; it reaches agg[v]
		// once, after the scan.
		var a float64
		hit := false
		for i, u := range srcs {
			inspected++
			if !frontier.Contains(u) {
				continue
			}
			contrib, ok := k.Emit(u, values[u], g.OutDegree(u))
			if !ok {
				continue
			}
			switch edge {
			case EdgeAddWeight:
				contrib += float64(wts[i])
			case EdgeMinWeight:
				contrib = reduceMin(contrib, float64(wts[i]))
			}
			switch {
			case !hit:
				a, hit = contrib, true
			case op == AggSum:
				a += contrib
			case op == AggMin:
				a = reduceMin(a, contrib)
			case op == AggMax:
				a = reduceMax(a, contrib)
			}
			if gk.GatherDone(a) {
				break
			}
		}
		if hit {
			e.agg[v], e.has[v] = a, true
		}
	}
	return inspected
}

// applySerial folds the aggregates in ascending vertex order, activating
// the next frontier in place — the serial reference update phase.
//
//perf:hot
func (e *engine) applySerial(next *Frontier) float64 {
	k, n := e.k, e.n
	var residual float64
	if e.tr.AllVerticesActive {
		for v := 0; v < n; v++ {
			nv, _ := k.Apply(e.g, graph.VertexID(v), e.values[v], e.agg[v], e.has[v])
			residual += math.Abs(nv - e.values[v])
			e.values[v] = nv
		}
		return residual
	}
	for v := 0; v < n; v++ {
		if !e.has[v] {
			continue
		}
		nv, activate := k.Apply(e.g, graph.VertexID(v), e.values[v], e.agg[v], true)
		e.values[v] = nv
		if activate {
			next.Activate(graph.VertexID(v))
		}
	}
	return residual
}

// applyChunk folds one vertex-range chunk, collecting its residual and
// activations into the chunk's own slots; apply folds them in chunk
// order, so the next frontier's activation order (ascending vertex id)
// and the residual's reduction tree are worker-count independent.
//
//perf:hot
func (e *engine) applyChunk(c int) {
	lo, hi := e.vtxChunk(c)
	act := e.activatedPerChunk[c][:0]
	var residual float64
	k := e.k
	if e.tr.AllVerticesActive {
		for v := lo; v < hi; v++ {
			nv, _ := k.Apply(e.g, graph.VertexID(v), e.values[v], e.agg[v], e.has[v])
			residual += math.Abs(nv - e.values[v])
			e.values[v] = nv
		}
	} else {
		for v := lo; v < hi; v++ {
			if !e.has[v] {
				continue
			}
			nv, activate := k.Apply(e.g, graph.VertexID(v), e.values[v], e.agg[v], true)
			e.values[v] = nv
			if activate {
				act = append(act, graph.VertexID(v))
			}
		}
	}
	e.activatedPerChunk[c] = act
	e.residualPerChunk[c] = residual
}

// apply recycles the spare frontier as the next active set and runs the
// update phase for the current mode.
//
//perf:hot
func (e *engine) apply() (*Frontier, float64) {
	next := e.spare
	next.Reset()
	if !e.staged {
		return next, e.applySerial(next)
	}
	e.runTasks(e.applyTask)
	var residual float64
	for c := 0; c < e.C; c++ {
		residual += e.residualPerChunk[c]
		for _, v := range e.activatedPerChunk[c] {
			next.Activate(v)
		}
	}
	return next, residual
}

// runTasks dispatches task(worker, c) for every chunk c, inline when the
// engine has no pool (one worker).
func (e *engine) runTasks(task func(worker, c int)) {
	if e.pool == nil {
		for c := 0; c < e.C; c++ {
			task(0, c)
		}
		return
	}
	e.pool.run(e.C, task)
}

// workerPool is a persistent pool: its goroutines are spawned once per
// engine run and reused by every phase of every iteration, replacing the
// fresh-goroutines-per-phase pattern that allocated on the hot path.
// Phases hand out items via an atomic cursor, which balances skewed
// chunks; determinism is unaffected because tasks write only their own
// chunk's slots and the single-threaded merges fold them in fixed chunk
// order.
type workerPool struct {
	workers int
	task    func(worker, i int)
	n       int
	cursor  atomic.Int64
	start   chan struct{}
	done    chan struct{}
}

// newWorkerPool spawns the pool. Both channels are buffered to the pool
// width so dispatch never blocks mid-handshake.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		start:   make(chan struct{}, workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		//lint:ignore closureloop one persistent goroutine per pool worker, spawned once per engine run and retired when the run closes the pool
		go func(w int) {
			for range p.start {
				for {
					i := int(p.cursor.Add(1)) - 1
					if i >= p.n {
						break
					}
					p.task(w, i)
				}
				p.done <- struct{}{}
			}
			p.done <- struct{}{} // start is closed: tell close this worker is out
		}(w)
	}
	return p
}

// run dispatches one phase and waits for it to drain. The start sends
// happen-before the workers' reads of task/n, and the done receives
// happen-after their last writes, so no phase state is ever racy.
func (p *workerPool) run(n int, task func(worker, i int)) {
	p.task, p.n = task, n
	p.cursor.Store(0)
	for i := 0; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}

// close retires the pool's goroutines and waits until each has left its
// loop; engine.close calls it so a pool never outlives its run. Without
// the wait a worker still parked on start keeps the last phase's task —
// a closure over the whole engine — reachable after the run has returned,
// and a collection landing before the worker is next scheduled counts
// every array of the engine as live.
func (p *workerPool) close() {
	close(p.start)
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}
