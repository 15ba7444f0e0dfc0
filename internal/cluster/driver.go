package cluster

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// sortedVertices returns m's keys in ascending vertex order. Every actor
// iterates its vertex-keyed maps through this: map iteration order is
// randomized, and letting it leak into batch composition or float
// aggregation order would make two runs of the same seed disagree.
func sortedVertices(m map[graph.VertexID]float64) []graph.VertexID {
	keys := make([]graph.VertexID, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// batchSize bounds how many updates travel in one message.
const batchSize = 512

// ctrl ops drive the actors through bulk-synchronous iterations.
type ctrl int

const (
	ctrlIterate ctrl = iota
	ctrlShutdown
)

// memCmd is the driver's per-iteration command to a memory-node actor.
// adopt lists partitions re-dispatched to this actor after a peer's
// crash; their active state arrives as recovery write-backs before the
// traversal starts.
type memCmd struct {
	op    ctrl
	iter  int
	adopt []int
}

// reroute tells the compute nodes that a partition is now served by a
// different actor (and that its fresh state must be re-sent there).
type reroute struct {
	part  int
	actor int
}

// compCmd is the driver's per-iteration command to a compute-node actor.
type compCmd struct {
	op      ctrl
	iter    int
	reroute []reroute
}

// computeSummary is a compute node's end-of-iteration report.
type computeSummary struct {
	compute        int
	activated      int64
	residual       float64
	writebackBytes int64
}

// switchSummary is one switch actor's end-of-iteration traffic report.
type switchSummary struct {
	level    int
	bytesIn  int64
	bytesOut int64
}

// switchSpec describes one switch actor in the aggregation tree.
type switchSpec struct {
	level int
	// idx is the switch's index within its level, used as the src id on
	// upward sends so the parent reduces children in a fixed order.
	idx int
	// gid is the switch's global index across all levels, used to form
	// stable link identities for fault injection.
	gid  int
	ctrl chan ctrl
	in   chan updateBatch
	// children is the number of final markers to await per iteration
	// (partitions for leaves, child switches otherwise).
	children int
	// parent is the next tree level's input; nil marks the root, which
	// delivers to the compute nodes instead. parentGid identifies the
	// parent for link identities.
	parent    chan updateBatch
	parentGid int
}

// driver wires the actors together and coordinates iterations.
type driver struct {
	g      *graph.Graph
	k      kernels.Kernel
	assign *partition.Assignment
	cfg    Config

	M, C int // memory nodes (= partitions), compute nodes
	S    int // switch count across all tree levels

	inj *injector
	st  *faultStats
	reg *metrics.Registry

	// Conservation counters: the receive/send side of each link class
	// that Traffic doesn't already cover (see the Counter* names in
	// cluster.go). All accrue per delivered copy.
	memSent  *metrics.Counter
	compRecv *metrics.Counter
	wbRecv   *metrics.Counter

	memCtrl  []chan memCmd
	compCtrl []chan compCmd

	// switches is the aggregation tree (flat topology = one root);
	// memTarget[m] is partition m's leaf-switch input, leafOf[m] that
	// switch's gid.
	switches  []*switchSpec
	levels    int
	memTarget []chan updateBatch
	leafOf    []int

	compIn []chan updateBatch // root switch -> compute nodes
	// wbActor[a] is the write-back input of memory-node actor a. It is
	// indexed by actor, not partition: after a crash the adopting peer
	// serves the dead actor's partitions on its own channel, and the
	// compute nodes re-route via their partition->actor table.
	wbActor []chan writebackBatch

	summaryCh chan computeSummary
	swSumCh   chan switchSummary
	memReady  chan int
	valuesCh  chan valueFragment
}

// valueFragment is a compute node's share of the final property vector.
type valueFragment struct {
	compute int
	ids     []graph.VertexID
	values  []float64
}

// owner maps a vertex to its compute node (vertex properties are
// hash-partitioned across hosts, independent of the edge partitioning).
func (d *driver) owner(v graph.VertexID) int {
	return int((uint64(v) * 0x9e3779b97f4a7c15 >> 32) % uint64(d.C))
}

// Stable node ids for link identities: partitions first, then switches,
// then compute nodes. Partitions keep their id across redispatch, so a
// fault plan targeting a link stays in force whichever actor drives it.
func (d *driver) partNode(m int) int     { return m }
func (d *driver) switchNode(gid int) int { return d.M + gid }
func (d *driver) compNode(c int) int     { return d.M + d.S + c }

// newLink builds the sender half of one logical link for the current
// iteration. The ack buffer is sized so a receiver can never block on an
// acknowledgement: outstanding unacknowledged copies are bounded by the
// data channel depth plus the in-flight duplicate.
func (d *driver) newLink(class LinkClass, from, to int) *link {
	return &link{
		id:    LinkID{Class: class, From: from, To: to},
		inj:   d.inj,
		st:    d.st,
		ack:   make(chan int, 2*d.cfg.ChannelDepth+16),
		acked: -1,
	}
}

func newDriver(g *graph.Graph, k kernels.Kernel, assign *partition.Assignment, cfg Config) *driver {
	reg := &metrics.Registry{}
	d := &driver{
		g: g, k: k, assign: assign, cfg: cfg,
		M: assign.K, C: cfg.ComputeNodes,
		inj: newInjector(cfg.Fault),
		reg: reg,
		st:  newFaultStats(reg),

		memSent:  reg.Counter(CounterMemSentBytes),
		compRecv: reg.Counter(CounterComputeRecvBytes),
		wbRecv:   reg.Counter(CounterWritebackRecvBytes),
	}
	depth := cfg.ChannelDepth
	d.memCtrl = make([]chan memCmd, d.M)
	d.wbActor = make([]chan writebackBatch, d.M)
	for m := 0; m < d.M; m++ {
		d.memCtrl[m] = make(chan memCmd, 1)
		d.wbActor[m] = make(chan writebackBatch, depth)
	}
	d.compCtrl = make([]chan compCmd, d.C)
	d.compIn = make([]chan updateBatch, d.C)
	for c := 0; c < d.C; c++ {
		d.compCtrl[c] = make(chan compCmd, 1)
		d.compIn[c] = make(chan updateBatch, depth)
	}
	d.buildTree(depth)
	d.S = len(d.switches)
	d.summaryCh = make(chan computeSummary, d.C)
	d.swSumCh = make(chan switchSummary, len(d.switches))
	d.memReady = make(chan int, d.M)
	d.valuesCh = make(chan valueFragment, d.C)
	return d
}

// buildTree lays out the switch hierarchy: memory nodes feed leaf
// switches in groups of fanIn, leaf switches feed parents likewise, until
// a single root remains. A flat topology (TreeFanIn < 2) is a one-switch
// tree.
func (d *driver) buildTree(depth int) {
	fanIn := d.cfg.TreeFanIn
	if fanIn < 2 {
		fanIn = d.M
	}
	if fanIn < 1 {
		fanIn = 1
	}
	// Level 0: leaves fed by memory nodes.
	count := d.M
	level := 0
	gid := 0
	d.memTarget = make([]chan updateBatch, d.M)
	d.leafOf = make([]int, d.M)
	var prev []*switchSpec
	for {
		num := (count + fanIn - 1) / fanIn
		if num < 1 {
			num = 1
		}
		cur := make([]*switchSpec, num)
		for i := range cur {
			cur[i] = &switchSpec{
				level: level,
				idx:   i,
				gid:   gid,
				ctrl:  make(chan ctrl, 1),
				in:    make(chan updateBatch, depth),
			}
			gid++
		}
		if level == 0 {
			for m := 0; m < d.M; m++ {
				s := cur[m/fanIn]
				d.memTarget[m] = s.in
				d.leafOf[m] = s.gid
				s.children++
			}
		} else {
			for i, p := range prev {
				s := cur[i/fanIn]
				p.parent = s.in
				p.parentGid = s.gid
				s.children++
			}
		}
		d.switches = append(d.switches, cur...)
		prev = cur
		count = num
		level++
		if num == 1 {
			break
		}
	}
	d.levels = level // number of switch levels; prev[0] is the root (parent nil)
}

// run spawns the actors and coordinates iterations to completion. The
// context is checked at each iteration boundary, where every actor is
// parked on its control channel; cancellation therefore never interrupts
// an in-flight protocol round — it walks the normal shutdown sequence
// and returns ctx.Err().
func (d *driver) run(ctx context.Context) (*Outcome, error) {
	g, k := d.g, d.k
	n := g.NumVertices()
	tr := k.Traits()

	// Seed state before any goroutine starts (no synchronization needed).
	initialValues := make([]float64, n)
	for v := 0; v < n; v++ {
		initialValues[v] = k.InitialValue(g, graph.VertexID(v))
	}
	initialActive := make([]map[graph.VertexID]float64, d.M)
	for m := range initialActive {
		initialActive[m] = make(map[graph.VertexID]float64)
	}
	seed := func(v graph.VertexID) {
		initialActive[int(d.assign.Part(v))][v] = initialValues[v]
	}
	if init := k.InitialFrontier(g); init == nil {
		for v := 0; v < n; v++ {
			seed(graph.VertexID(v))
		}
	} else {
		for _, v := range init {
			seed(v)
		}
	}

	// Compute-side fresh mirrors: freshInit[c][m] is compute c's share
	// of partition m's active state — what the pool holds after the
	// latest write-back. Maintained every iteration, it is the recovery
	// source when a memory-node actor crashes.
	freshInit := make([]map[int]map[graph.VertexID]float64, d.C)
	for c := range freshInit {
		freshInit[c] = make(map[int]map[graph.VertexID]float64, d.M)
	}
	for m := range initialActive {
		for _, v := range sortedVertices(initialActive[m]) {
			c := d.owner(v)
			nf := freshInit[c][m]
			if nf == nil {
				nf = make(map[graph.VertexID]float64)
				freshInit[c][m] = nf
			}
			nf[v] = initialActive[m][v]
		}
	}

	for a := 0; a < d.M; a++ {
		go d.memoryNode(a, map[int]map[graph.VertexID]float64{a: initialActive[a]})
	}
	for _, s := range d.switches {
		go d.switchActor(s)
	}
	for c := 0; c < d.C; c++ {
		owned := make(map[graph.VertexID]float64)
		for v := 0; v < n; v++ {
			if d.owner(graph.VertexID(v)) == c {
				owned[graph.VertexID(v)] = initialValues[graph.VertexID(v)]
			}
		}
		go d.computeNode(c, owned, freshInit[c])
	}

	out := &Outcome{
		LevelBytes:   make([]int64, d.levels),
		LevelBytesIn: make([]int64, d.levels),
	}
	alive := make([]bool, d.M)
	for a := range alive {
		alive[a] = true
	}
	aliveCount := d.M
	served := make([][]int, d.M)
	for a := range served {
		served[a] = []int{a}
	}

	var runErr error
	frontierNonEmpty := true
	for iter := 0; iter < tr.MaxIterations && frontierNonEmpty; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				runErr = err
				break
			}
		}
		// Crash schedule: actors scheduled to fail now die before doing
		// any work this iteration. The heartbeat timeout that would
		// reveal the failure is modeled in virtual time, so detection
		// is immediate and deterministic: the driver re-dispatches the
		// dead actor's partitions to the next alive peer, and the hosts
		// re-send those partitions' write-back-fresh state to it.
		var reroutes []reroute
		adopts := make(map[int][]int)
		var newlyDead []int
		for a := 0; a < d.M; a++ {
			if crashIter, ok := d.inj.crashIteration(a); ok && alive[a] && crashIter == iter {
				alive[a] = false
				newlyDead = append(newlyDead, a)
				d.st.crashes.Inc()
			}
		}
		aliveCount -= len(newlyDead)
		for _, a := range newlyDead {
			peer := d.nextAlive(a, alive)
			parts := served[a]
			served[a] = nil
			served[peer] = append(served[peer], parts...)
			adopts[peer] = append(adopts[peer], parts...)
			for _, part := range parts {
				reroutes = append(reroutes, reroute{part: part, actor: peer})
			}
			d.st.redispatch.Add(int64(len(parts)))
		}
		sort.Slice(reroutes, func(i, j int) bool { return reroutes[i].part < reroutes[j].part })

		// Kick everyone off.
		for _, s := range d.switches {
			s.ctrl <- ctrlIterate
		}
		for c := 0; c < d.C; c++ {
			d.compCtrl[c] <- compCmd{op: ctrlIterate, iter: iter, reroute: reroutes}
		}
		for a := 0; a < d.M; a++ {
			if !alive[a] {
				continue
			}
			ad := adopts[a]
			sort.Ints(ad)
			d.memCtrl[a] <- memCmd{op: ctrlIterate, iter: iter, adopt: ad}
		}
		// Collect end-of-iteration reports. Summaries arrive in scheduler
		// order; the float residual is reduced in compute-node order so
		// the convergence decision is reproducible.
		var traffic Traffic
		var activated int64
		residuals := make([]float64, d.C)
		for i := 0; i < d.C; i++ {
			s := <-d.summaryCh
			activated += s.activated
			residuals[s.compute] = s.residual
			traffic.Writeback += s.writebackBytes
		}
		var residual float64
		for _, r := range residuals {
			residual += r
		}
		for i := 0; i < len(d.switches); i++ {
			sw := <-d.swSumCh
			if sw.level == 0 {
				traffic.MemToSwitch += sw.bytesIn
			}
			if sw.level == d.levels-1 {
				traffic.SwitchToCompute += sw.bytesOut
			}
			out.LevelBytes[sw.level] += sw.bytesOut
			out.LevelBytesIn[sw.level] += sw.bytesIn
		}
		for i := 0; i < aliveCount; i++ {
			<-d.memReady
		}
		out.Iterations++
		out.PerIteration = append(out.PerIteration, traffic)
		out.Traffic.MemToSwitch += traffic.MemToSwitch
		out.Traffic.SwitchToCompute += traffic.SwitchToCompute
		out.Traffic.Writeback += traffic.Writeback

		if tr.AllVerticesActive {
			if tr.Epsilon > 0 && residual < tr.Epsilon {
				out.Converged = true
				frontierNonEmpty = false
			}
		} else if activated == 0 {
			out.Converged = true
			frontierNonEmpty = false
		}
	}
	if frontierNonEmpty && out.Iterations >= tr.MaxIterations {
		// Budget exhausted; fixed-point kernels count this as done.
		out.Converged = out.Converged || tr.AllVerticesActive
	} else {
		out.Converged = true
	}

	// Shut down and gather values. Crashed actors still get the
	// shutdown command: their goroutines sat parked on the control
	// channel since the crash (the "dead" state is that the protocol
	// stopped scheduling them), and this reaps them.
	for a := 0; a < d.M; a++ {
		d.memCtrl[a] <- memCmd{op: ctrlShutdown}
	}
	for _, s := range d.switches {
		s.ctrl <- ctrlShutdown
	}
	for c := 0; c < d.C; c++ {
		d.compCtrl[c] <- compCmd{op: ctrlShutdown}
	}
	values := make([]float64, n)
	for i := 0; i < d.C; i++ {
		frag := <-d.valuesCh
		for j, v := range frag.ids {
			values[v] = frag.values[j]
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	out.Values = values
	out.Faults = d.st.summary()
	out.Counters = d.reg.Snapshot()
	return out, nil
}

// nextAlive picks a crashed actor's successor: the first alive actor
// scanning cyclically upward from the failed index — deterministic, so
// identical runs re-dispatch identically.
func (d *driver) nextAlive(from int, alive []bool) int {
	for i := 1; i <= d.M; i++ {
		cand := (from + i) % d.M
		if alive[cand] {
			return cand
		}
	}
	return from // unreachable: validateCrashes guarantees a survivor
}

// memoryNode is the NDP unit of memory-node actor a: it serves a set of
// partitions (initially just its own; more after adopting a crashed
// peer's), keeps the freshest properties of their active vertices
// (delivered by write-backs), and runs the traversal phase on command.
func (d *driver) memoryNode(a int, active map[int]map[graph.VertexID]float64) {
	g, k := d.g, d.k
	tr := k.Traits()
	for cmd := range d.memCtrl[a] {
		if cmd.op == ctrlShutdown {
			return
		}
		iter := cmd.iter
		// Per-iteration dedup state for the write-back stream: highest
		// sequence number seen per (compute, partition) link. Links and
		// sequence numbers are per-iteration, so this resets with them.
		lastSeq := make(map[[2]int]int)
		recv := func(into func(part int) map[graph.VertexID]float64, want int) {
			for got := 0; got < want; {
				wb := <-d.wbActor[a]
				wb.ack <- wb.seq
				d.st.acks.Inc()
				d.wbRecv.Add(int64(len(wb.updates)) * UpdateBytes)
				key := [2]int{wb.compute, wb.part}
				if prev, ok := lastSeq[key]; ok && wb.seq <= prev {
					continue // injected duplicate, already absorbed
				}
				lastSeq[key] = wb.seq
				m := into(wb.part)
				for _, u := range wb.updates {
					m[u.Vertex] = u.Value
				}
				if wb.final {
					got++
				}
			}
		}

		// Recovery drain: partitions adopted from a crashed peer arrive
		// with no state; every compute node re-sends its share of their
		// write-back-fresh mirror before anything else this iteration.
		if len(cmd.adopt) > 0 {
			for _, part := range cmd.adopt {
				active[part] = make(map[graph.VertexID]float64)
			}
			recv(func(part int) map[graph.VertexID]float64 { return active[part] }, d.C*len(cmd.adopt))
		}

		// Traversal phase: scatter along out-edges of active vertices,
		// pre-aggregating per destination (this local reduction is what
		// turns edge traffic into per-destination partial updates). One
		// sub-stream per served partition, in ascending partition order,
		// each tagged with the partition id as src — so the receiving
		// switch reduces the same child streams in the same order
		// whichever actor produced them.
		parts := sortedInts(active)
		for _, part := range parts {
			partials := make(map[graph.VertexID]float64)
			act := active[part]
			for _, v := range sortedVertices(act) {
				base, ok := k.Emit(v, act[v], g.OutDegree(v))
				if !ok {
					continue
				}
				lo, hi := g.EdgeRange(v)
				nbrs := g.Edges()[lo:hi]
				wts := g.Weights()
				for i, dst := range nbrs {
					w := float32(1)
					if wts != nil {
						w = wts[lo+int64(i)]
					}
					u := tr.Edge.Combine(base, w)
					if prev, seen := partials[dst]; seen {
						partials[dst] = tr.Agg.Reduce(prev, u)
					} else {
						partials[dst] = u
					}
				}
			}
			l := d.newLink(LinkUpdate, d.partNode(part), d.switchNode(d.leafOf[part]))
			out := d.memTarget[part]
			src := part
			batch := make([]Update, 0, batchSize)
			flush := func(final bool) {
				b := batch
				l.transmit(iter, final, func(seq int, ack chan<- int) {
					d.memSent.Add(int64(len(b)) * UpdateBytes)
					out <- updateBatch{src: src, seq: seq, updates: b, final: final, ack: ack}
				})
				batch = make([]Update, 0, batchSize)
			}
			for _, dst := range sortedVertices(partials) {
				batch = append(batch, Update{Vertex: dst, Value: partials[dst]})
				if len(batch) == batchSize {
					flush(false)
				}
			}
			flush(true)
			l.barrier()
		}

		// Write-back phase: refresh every served partition's active set
		// from the hosts.
		next := make(map[int]map[graph.VertexID]float64, len(parts))
		for _, part := range parts {
			next[part] = make(map[graph.VertexID]float64, len(active[part]))
		}
		recv(func(part int) map[graph.VertexID]float64 { return next[part] }, d.C*len(parts))
		active = next
		d.memReady <- a
	}
}

// switchActor is one in-network element of the aggregation tree. It
// receives partial-update batches from its children (partitions for
// leaves, child switches otherwise), acknowledges and dedups them,
// optionally merges updates for the same destination, and forwards the
// stream to its parent — or, at the root, routes each update to the
// compute node owning its destination.
//
// Batches from different children interleave on the input channel in
// scheduler-dependent order, so the actor stages them per child and
// reduces in ascending child id once every child has finished. Within one
// child the channel preserves send order (retransmissions happen before
// anything newer, duplicates are discarded by sequence number), so the
// staged sequences — and with them every float aggregation and the
// emitted stream — are identical across runs, faults or none.
//
//perf:hot
func (d *driver) switchActor(s *switchSpec) {
	op := d.k.Traits().Agg
	isRoot := s.parent == nil
	iter := -1
	// Reusable per-iteration buffers: the staged map's child ids (at
	// most s.children distinct sources) and the aggregation map's sorted
	// destination list (batchSize is only the initial guess — the buffer
	// grows once to the aggregate's width and is then reused).
	childIDs := make([]int, 0, s.children)
	vertexBuf := make([]graph.VertexID, 0, batchSize)
	for cmd := range s.ctrl {
		if cmd == ctrlShutdown {
			return
		}
		iter++
		sum := switchSummary{level: s.level}

		// Output paths: per-compute links at the root, a single parent
		// link otherwise. Byte counts accrue per delivered copy, so the
		// recorded traffic is wire truth (duplicates included) and
		// still byte-identical to the fault-free run on an empty plan.
		var rootLinks []*link
		var upLink *link
		if isRoot {
			rootLinks = make([]*link, d.C)
			for c := range rootLinks {
				//lint:ignore loopalloc each link is fresh per-iteration protocol state (sequence window and ack channel) by design
				rootLinks[c] = d.newLink(LinkUpdate, d.switchNode(s.gid), d.compNode(c))
			}
		} else {
			//lint:ignore loopalloc each link is fresh per-iteration protocol state (sequence window and ack channel) by design
			upLink = d.newLink(LinkUpdate, d.switchNode(s.gid), d.switchNode(s.parentGid))
		}
		outBatch := make([][]Update, d.C)
		sendRoot := func(c int, final bool) {
			b := outBatch[c]
			rootLinks[c].transmit(iter, final, func(seq int, ack chan<- int) {
				sum.bytesOut += int64(len(b)) * UpdateBytes
				d.compIn[c] <- updateBatch{src: s.idx, seq: seq, updates: b, final: final, ack: ack}
			})
			outBatch[c] = nil
		}
		var upBatch []Update
		sendUp := func(final bool) {
			b := upBatch
			upLink.transmit(iter, final, func(seq int, ack chan<- int) {
				sum.bytesOut += int64(len(b)) * UpdateBytes
				s.parent <- updateBatch{src: s.idx, seq: seq, updates: b, final: final, ack: ack}
			})
			upBatch = nil
		}
		emit := func(u Update) {
			if isRoot {
				c := d.owner(u.Vertex)
				outBatch[c] = append(outBatch[c], u)
				if len(outBatch[c]) == batchSize {
					sendRoot(c, false)
				}
				return
			}
			upBatch = append(upBatch, u)
			if len(upBatch) == batchSize {
				sendUp(false)
			}
		}

		// Stage phase: drain every child, acknowledging and absorbing
		// duplicates, keeping each child's updates in its send order.
		staged := make(map[int][]Update)
		lastSeq := make(map[int]int)
		finals := 0
		for finals < s.children {
			b := <-s.in
			b.ack <- b.seq
			d.st.acks.Inc()
			sum.bytesIn += int64(len(b.updates)) * UpdateBytes
			if prev, ok := lastSeq[b.src]; ok && b.seq <= prev {
				continue // injected duplicate, already staged
			}
			lastSeq[b.src] = b.seq
			if len(b.updates) > 0 {
				staged[b.src] = append(staged[b.src], b.updates...)
			}
			if b.final {
				finals++
			}
		}
		childIDs = childIDs[:0]
		for src := range staged {
			childIDs = append(childIDs, src)
		}
		sort.Ints(childIDs)

		// Reduce phase, in fixed child order.
		var agg map[graph.VertexID]float64
		if d.cfg.Aggregate {
			agg = make(map[graph.VertexID]float64)
		}
		for _, src := range childIDs {
			for _, u := range staged[src] {
				if agg != nil {
					if prev, seen := agg[u.Vertex]; seen {
						agg[u.Vertex] = op.Reduce(prev, u.Value)
					} else {
						agg[u.Vertex] = u.Value
					}
				} else {
					emit(u)
				}
			}
		}
		if agg != nil {
			vertexBuf = vertexBuf[:0]
			for v := range agg {
				vertexBuf = append(vertexBuf, v)
			}
			slices.Sort(vertexBuf)
			for _, v := range vertexBuf {
				emit(Update{Vertex: v, Value: agg[v]})
			}
		}
		if isRoot {
			for c := 0; c < d.C; c++ {
				sendRoot(c, true)
			}
			for c := 0; c < d.C; c++ {
				rootLinks[c].barrier()
			}
		} else {
			sendUp(true)
			upLink.barrier()
		}
		d.swSumCh <- sum
	}
}

// computeNode owns a hash-share of the vertex properties: it reduces the
// incoming partial updates, runs the update phase, and writes refreshed
// properties back to the actor serving each vertex's partition. It also
// maintains fresh — its share of every partition's write-back-fresh
// active state — which is what makes memory-node crashes recoverable:
// on a re-dispatch it re-sends the mirror to the adopting peer.
func (d *driver) computeNode(c int, values map[graph.VertexID]float64, fresh map[int]map[graph.VertexID]float64) {
	g, k := d.g, d.k
	tr := k.Traits()
	// route[m] is the actor currently serving partition m.
	route := make([]int, d.M)
	for m := range route {
		route[m] = m
	}
	for cmd := range d.compCtrl[c] {
		if cmd.op == ctrlShutdown {
			break
		}
		iter := cmd.iter
		sum := computeSummary{compute: c}

		// One write-back link per partition per iteration, created on
		// first use; byte counts accrue per delivered copy.
		wlinks := make([]*link, d.M)
		wlink := func(part int) *link {
			if wlinks[part] == nil {
				wlinks[part] = d.newLink(LinkWriteback, d.compNode(c), d.partNode(part))
			}
			return wlinks[part]
		}
		sendWB := func(part int, updates []Update, recovery, final bool) {
			b := updates
			wlink(part).transmit(iter, final, func(seq int, ack chan<- int) {
				sum.writebackBytes += int64(len(b)) * UpdateBytes
				d.wbActor[route[part]] <- writebackBatch{
					compute: c, part: part, seq: seq, updates: b,
					recovery: recovery, final: final, ack: ack,
				}
			})
		}

		// Crash recovery: apply the routing updates, then re-send the
		// write-back-fresh mirror of each re-dispatched partition to
		// its new server (which drains it before traversing).
		for _, rr := range cmd.reroute {
			route[rr.part] = rr.actor
		}
		for _, rr := range cmd.reroute {
			mirror := fresh[rr.part]
			batch := make([]Update, 0, batchSize)
			for _, v := range sortedVertices(mirror) {
				batch = append(batch, Update{Vertex: v, Value: mirror[v]})
				if len(batch) == batchSize {
					sendWB(rr.part, batch, true, false)
					batch = make([]Update, 0, batchSize)
				}
			}
			sendWB(rr.part, batch, true, true)
		}

		// Reduce phase: merge root deliveries per destination,
		// acknowledging everything and absorbing duplicates by seq.
		agg := make(map[graph.VertexID]float64)
		lastSeq := -1
		finals := 0
		for finals < 1 { // the root sends exactly one final marker per compute node
			b := <-d.compIn[c]
			b.ack <- b.seq
			d.st.acks.Inc()
			d.compRecv.Add(int64(len(b.updates)) * UpdateBytes)
			if b.seq <= lastSeq {
				continue // injected duplicate, already reduced
			}
			lastSeq = b.seq
			for _, u := range b.updates {
				if prev, seen := agg[u.Vertex]; seen {
					agg[u.Vertex] = tr.Agg.Reduce(prev, u.Value)
				} else {
					agg[u.Vertex] = u.Value
				}
			}
			if b.final {
				finals++
			}
		}

		// Update phase. The write-backs of this iteration are exactly
		// the pool's next active state, so they rebuild the fresh
		// mirrors as a side effect.
		nextFresh := make(map[int]map[graph.VertexID]float64, d.M)
		wbBatches := make([][]Update, d.M)
		writeback := func(v graph.VertexID, val float64) {
			m := int(d.assign.Part(v))
			wbBatches[m] = append(wbBatches[m], Update{Vertex: v, Value: val})
			nf := nextFresh[m]
			if nf == nil {
				nf = make(map[graph.VertexID]float64)
				nextFresh[m] = nf
			}
			nf[v] = val
		}
		if tr.AllVerticesActive {
			for _, v := range sortedVertices(values) {
				old := values[v]
				a, has := agg[v]
				if !has {
					a = k.Identity()
				}
				nv, _ := k.Apply(g, v, old, a, has)
				sum.residual += math.Abs(nv - old)
				values[v] = nv
				sum.activated++
				writeback(v, nv)
			}
		} else {
			for _, v := range sortedVertices(agg) {
				old := values[v]
				nv, activate := k.Apply(g, v, old, agg[v], true)
				values[v] = nv
				if activate {
					sum.activated++
					writeback(v, nv)
				}
			}
		}
		for m := 0; m < d.M; m++ {
			updates := wbBatches[m]
			for len(updates) > batchSize {
				sendWB(m, updates[:batchSize], false, false)
				updates = updates[batchSize:]
			}
			sendWB(m, updates, false, true)
		}
		for _, l := range wlinks {
			if l != nil {
				l.barrier()
			}
		}
		fresh = nextFresh
		d.summaryCh <- sum
	}
	// Shutdown: deliver the owned value fragment.
	frag := valueFragment{compute: c}
	for _, v := range sortedVertices(values) {
		frag.ids = append(frag.ids, v)
		frag.values = append(frag.values, values[v])
	}
	d.valuesCh <- frag
}
