package cluster

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// denseAcc reduces values per index over a fixed range: a value array
// and a touched bitset. The first value to reach an index is stored as
// it is and later ones fold in with op in arrival order, which is what
// the vertex-keyed map it replaces did; drain then visits the touched
// indices by a word sweep, ascending by construction where the map's
// keys had to be collected and sorted. Every actor's per-vertex state is
// one: a memory node's active sets (indexed by rank in the partition)
// and its per-destination pre-aggregation (by vertex id), a switch's
// in-network aggregation (by vertex id), a compute node's reduce (by
// rank in the owner's share).
type denseAcc struct {
	op   kernels.AggOp
	vals []float64
	set  []uint64
}

func newDenseAcc(width int, op kernels.AggOp) *denseAcc {
	return &denseAcc{op: op, vals: make([]float64, width), set: make([]uint64, (width+63)/64)}
}

func (a *denseAcc) add(i int, v float64) {
	if w, bit := i>>6, uint64(1)<<(i&63); a.set[w]&bit == 0 {
		a.set[w] |= bit
		a.vals[i] = v
	} else {
		a.vals[i] = a.op.Reduce(a.vals[i], v)
	}
}

// take removes index i and returns its value, if it was touched.
func (a *denseAcc) take(i int) (float64, bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if a.set[w]&bit == 0 {
		return 0, false
	}
	a.set[w] &^= bit
	return a.vals[i], true
}

// drain hands every touched index to emit in ascending order and leaves
// the accumulator empty.
func (a *denseAcc) drain(emit func(i int, v float64)) {
	for w, word := range a.set {
		a.set[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			emit(i, a.vals[i])
		}
	}
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

	// The read-only index every actor addresses its dense state by:
	// members[m] and owned[c] are partition m's and compute node c's
	// vertices in ascending order, partRank[v] and ownRank[v] vertex v's
	// position in its partition's and its owner's list.
	members, owned    [][]graph.VertexID
	partRank, ownRank []int32

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

// valueFragment is a compute node's share of the final property vector,
// in the order of its owned list.
type valueFragment struct {
	compute int
	values  []float64
}

// rankBy splits vertices 0..n-1 into k ascending lists by group and
// returns them with every vertex's position in its list.
func rankBy(n, k int, group func(graph.VertexID) int) ([][]graph.VertexID, []int32) {
	lists := make([][]graph.VertexID, k)
	rank := make([]int32, n)
	for v := 0; v < n; v++ {
		i := group(graph.VertexID(v))
		rank[v] = int32(len(lists[i]))
		lists[i] = append(lists[i], graph.VertexID(v))
	}
	return lists, rank
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
	n := g.NumVertices()
	d.members, d.partRank = rankBy(n, d.M, func(v graph.VertexID) int { return int(assign.Part(v)) })
	d.owned, d.ownRank = rankBy(n, d.C, d.owner)
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
// a single root remains. The flat topology (TreeFanIn 0) is a one-switch
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

	// Seed state before any goroutine starts (no synchronization needed):
	// each partition's active set, each compute node's owned values, and
	// the compute-side fresh mirrors. fresh[c][m] is compute c's share of
	// partition m's active state — what the pool holds after the latest
	// write-back, as the ascending update list that write-back carried.
	// Maintained every iteration, it is the recovery source when a
	// memory-node actor crashes.
	var inFrontier []bool
	if init := k.InitialFrontier(g); init != nil {
		inFrontier = make([]bool, n)
		for _, v := range init {
			inFrontier[v] = true
		}
	}
	active := make([]*denseAcc, d.M)
	for m := range active {
		active[m] = newDenseAcc(len(d.members[m]), tr.Agg)
	}
	values := make([][]float64, d.C)
	fresh := make([][][]Update, d.C)
	for c := range fresh {
		values[c] = make([]float64, len(d.owned[c]))
		fresh[c] = make([][]Update, d.M)
	}
	for i := 0; i < n; i++ {
		v := graph.VertexID(i)
		val := k.InitialValue(g, v)
		c, m := d.owner(v), int(d.assign.Part(v))
		values[c][d.ownRank[v]] = val
		if inFrontier == nil || inFrontier[v] {
			active[m].add(int(d.partRank[v]), val)
			fresh[c][m] = append(fresh[c][m], Update{Vertex: v, Value: val})
		}
	}

	// Every actor runs under one join: run returns only once all have
	// exited. The goroutine takes actor and join as arguments, so past the
	// actor's return its frame keeps no driver or actor state reachable.
	var actors sync.WaitGroup
	spawn := func(actor func()) {
		actors.Add(1)
		go func(actor func(), join *sync.WaitGroup) {
			actor()
			join.Done()
		}(actor, &actors)
	}
	for a := 0; a < d.M; a++ {
		spawn(func() { d.memoryNode(a, active[a]) })
	}
	for _, s := range d.switches {
		spawn(func() { d.switchActor(s) })
	}
	for c := 0; c < d.C; c++ {
		spawn(func() { d.computeNode(c, values[c], fresh[c]) })
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
		slices.SortFunc(reroutes, func(x, y reroute) int { return x.part - y.part })

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
			slices.Sort(adopts[a])
			d.memCtrl[a] <- memCmd{op: ctrlIterate, iter: iter, adopt: adopts[a]}
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
	final := make([]float64, n)
	for i := 0; i < d.C; i++ {
		frag := <-d.valuesCh
		for r, v := range d.owned[frag.compute] {
			final[v] = frag.values[r]
		}
	}
	actors.Wait()
	if runErr != nil {
		return nil, runErr
	}
	out.Values = final
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
// own is its partition's seeded active set, indexed by rank.
func (d *driver) memoryNode(a int, own *denseAcc) {
	g, k := d.g, d.k
	tr := k.Traits()
	edges, weights := g.Edges(), g.Weights()
	// active[part] is the active set of each of the served partitions,
	// nil for the rest. The traversal drains each set and the write-backs
	// that follow refill it, so one buffer per partition is both this
	// iteration's state and the next's.
	active := make([]*denseAcc, d.M)
	active[a] = own
	served := 1
	// partials pre-aggregates one partition's scatter per destination;
	// drained empty into the update stream, it serves each one in turn.
	partials := newDenseAcc(g.NumVertices(), tr.Agg)
	// Dedup state for the write-back stream: highest sequence number
	// seen per (compute, partition) link. Links and sequence numbers are
	// per-iteration, so this resets with them.
	lastSeq := make([]int, d.C*d.M)
	recv := func(want int) {
		for got := 0; got < want; {
			wb := <-d.wbActor[a]
			wb.ack <- wb.seq
			d.st.acks.Inc()
			d.wbRecv.Add(int64(len(wb.updates)) * UpdateBytes)
			key := wb.compute*d.M + wb.part
			if wb.seq <= lastSeq[key] {
				continue // injected duplicate, already absorbed
			}
			lastSeq[key] = wb.seq
			acc := active[wb.part]
			for _, u := range wb.updates {
				acc.add(int(d.partRank[u.Vertex]), u.Value)
			}
			if wb.final {
				got++
			}
		}
	}
	for cmd := range d.memCtrl[a] {
		if cmd.op == ctrlShutdown {
			return
		}
		iter := cmd.iter
		for i := range lastSeq {
			lastSeq[i] = -1
		}

		// Recovery drain: partitions adopted from a crashed peer arrive
		// with no state; every compute node re-sends its share of their
		// write-back-fresh mirror before anything else this iteration.
		if len(cmd.adopt) > 0 {
			for _, part := range cmd.adopt {
				active[part] = newDenseAcc(len(d.members[part]), tr.Agg)
			}
			served += len(cmd.adopt)
			recv(d.C * len(cmd.adopt))
		}

		// Traversal phase: scatter along out-edges of active vertices,
		// pre-aggregating per destination (this local reduction is what
		// turns edge traffic into per-destination partial updates). One
		// sub-stream per served partition, in ascending partition order,
		// each tagged with the partition id as src — so the receiving
		// switch reduces the same child streams in the same order
		// whichever actor produced them.
		for part, acc := range active {
			if acc == nil {
				continue
			}
			members := d.members[part]
			acc.drain(func(r int, val float64) {
				v := members[r]
				lo, hi := g.EdgeRange(v)
				base, ok := k.Emit(v, val, hi-lo)
				if !ok {
					return
				}
				if weights == nil {
					u := tr.Edge.Combine(base, 1)
					for _, dst := range edges[lo:hi] {
						partials.add(int(dst), u)
					}
					return
				}
				for i, dst := range edges[lo:hi] {
					partials.add(int(dst), tr.Edge.Combine(base, weights[lo+int64(i)]))
				}
			})
			l := d.newLink(LinkUpdate, d.partNode(part), d.switchNode(d.leafOf[part]))
			out := d.memTarget[part]
			var batch []Update
			flush := func(final bool) {
				b := batch
				l.transmit(iter, final, func(seq int, ack chan<- int) {
					d.memSent.Add(int64(len(b)) * UpdateBytes)
					out <- updateBatch{src: part, seq: seq, updates: b, final: final, ack: ack}
				})
				batch = nil
			}
			partials.drain(func(dst int, val float64) {
				if batch == nil {
					// A sent batch belongs to its receiver, which reads it
					// after acknowledging: each one is allocated, not reused.
					batch = make([]Update, 0, batchSize)
				}
				batch = append(batch, Update{Vertex: graph.VertexID(dst), Value: val})
				if len(batch) == batchSize {
					flush(false)
				}
			})
			flush(true)
			l.barrier()
		}

		// Write-back phase: refill every served partition's active set
		// from the hosts.
		recv(d.C * served)
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
func (d *driver) switchActor(s *switchSpec) {
	op := d.k.Traits().Agg
	isRoot := s.parent == nil
	iter := -1
	// Reused across iterations: the per-child staging buffers (the reduce
	// phase copies every update out and truncates them), their child ids
	// and, when aggregating, the per-destination accumulator, which every
	// reduce phase drains empty.
	staged := make(map[int][]Update, s.children)
	childIDs := make([]int, 0, s.children)
	var agg *denseAcc
	if d.cfg.Aggregate {
		agg = newDenseAcc(d.g.NumVertices(), op)
	}
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
				rootLinks[c] = d.newLink(LinkUpdate, d.switchNode(s.gid), d.compNode(c))
			}
		} else {
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
		slices.Sort(childIDs)

		// Reduce phase, in fixed child order.
		for _, src := range childIDs {
			for _, u := range staged[src] {
				if agg != nil {
					agg.add(int(u.Vertex), u.Value)
				} else {
					emit(u)
				}
			}
			staged[src] = staged[src][:0]
		}
		if agg != nil {
			agg.drain(func(v int, val float64) { emit(Update{Vertex: graph.VertexID(v), Value: val}) })
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

// computeNode owns a hash-share of the vertex properties (values, in the
// order of its ascending owned list): it reduces the incoming partial
// updates, runs the update phase, and writes refreshed properties back to
// the actor serving each vertex's partition. It also keeps fresh — its
// share of every partition's write-back-fresh active state, which is the
// previous iteration's write-back batches themselves — and that is what
// makes memory-node crashes recoverable: on a re-dispatch it re-sends
// the mirror to the adopting peer.
func (d *driver) computeNode(c int, values []float64, fresh [][]Update) {
	g, k := d.g, d.k
	tr := k.Traits()
	owned := d.owned[c]
	identity := k.Identity()
	// route[m] is the actor currently serving partition m.
	route := make([]int, d.M)
	for m := range route {
		route[m] = m
	}
	agg := newDenseAcc(len(owned), tr.Agg)
	// wb collects this iteration's write-backs per partition and then
	// trades places with fresh: the buffers an iteration refills are the
	// mirror of two iterations back, which every receiver has long
	// copied out of.
	wb := make([][]Update, d.M)
	wlinks := make([]*link, d.M)
	for cmd := range d.compCtrl[c] {
		if cmd.op == ctrlShutdown {
			break
		}
		iter := cmd.iter
		sum := computeSummary{compute: c}

		// One write-back link per partition per iteration, created on
		// first use; byte counts accrue per delivered copy.
		clear(wlinks)
		sendWB := func(part int, updates []Update, recovery, final bool) {
			if wlinks[part] == nil {
				wlinks[part] = d.newLink(LinkWriteback, d.compNode(c), d.partNode(part))
			}
			wlinks[part].transmit(iter, final, func(seq int, ack chan<- int) {
				sum.writebackBytes += int64(len(updates)) * UpdateBytes
				d.wbActor[route[part]] <- writebackBatch{
					compute: c, part: part, seq: seq, updates: updates,
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
			for ; len(mirror) >= batchSize; mirror = mirror[batchSize:] {
				sendWB(rr.part, mirror[:batchSize], true, false)
			}
			sendWB(rr.part, mirror, true, true)
		}

		// Reduce phase: merge root deliveries per destination,
		// acknowledging everything and absorbing duplicates by seq.
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
				agg.add(int(d.ownRank[u.Vertex]), u.Value)
			}
			if b.final {
				finals++
			}
		}

		// Update phase, over owned vertices in ascending order. The
		// write-backs of this iteration are exactly the pool's next
		// active state, so they are the next fresh mirrors as they stand.
		for m := range wb {
			wb[m] = wb[m][:0]
		}
		writeback := func(v graph.VertexID, val float64) {
			m := d.assign.Part(v)
			wb[m] = append(wb[m], Update{Vertex: v, Value: val})
		}
		if tr.AllVerticesActive {
			for r, v := range owned {
				old := values[r]
				a, has := agg.take(r)
				if !has {
					a = identity
				}
				nv, _ := k.Apply(g, v, old, a, has)
				sum.residual += math.Abs(nv - old)
				values[r] = nv
				sum.activated++
				writeback(v, nv)
			}
		} else {
			agg.drain(func(r int, a float64) {
				nv, activate := k.Apply(g, owned[r], values[r], a, true)
				values[r] = nv
				if activate {
					sum.activated++
					writeback(owned[r], nv)
				}
			})
		}
		for m, updates := range wb {
			for ; len(updates) > batchSize; updates = updates[batchSize:] {
				sendWB(m, updates[:batchSize], false, false)
			}
			sendWB(m, updates, false, true)
		}
		for _, l := range wlinks {
			if l != nil {
				l.barrier()
			}
		}
		fresh, wb = wb, fresh
		d.summaryCh <- sum
	}
	// Shutdown: deliver the owned value fragment.
	d.valuesCh <- valueFragment{compute: c, values: values}
}
