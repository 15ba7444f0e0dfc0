// Fault injection and the recovery protocol that tolerates it.
//
// The disaggregated architecture puts a network between the compute
// hosts and the graph, which makes link loss, stragglers, and memory-node
// failure first-class behaviours rather than exceptional ones. This file
// defines the seeded FaultPlan that injects them and the sender half of
// the protocol that absorbs them: every logical link carries sequence
// numbers, every delivered batch is acknowledged, lost transmissions are
// retried under a bounded budget with exponential virtual-time backoff,
// and duplicates are absorbed idempotently at the receiver (dedup by
// sequence number before any reduction).
//
// Everything is deterministic by construction. Fault decisions are pure
// functions of (plan seed, link identity, iteration, sequence number,
// attempt) through a splitmix64-style hash — never of wall-clock time,
// goroutine scheduling, or a shared RNG stream whose consumption order
// could vary between runs. Timeouts are modeled in virtual time: the
// injector sits on the link, so the sender learns of a loss at the
// moment it would have timed out, and the backoff it would have slept is
// added to a virtual clock instead of being slept. Two runs with the
// same plan therefore inject exactly the same faults at exactly the same
// protocol points and produce bit-for-bit identical Outcomes; the
// nodeterm lint rule statically enforces that no wall clock or ambient
// RNG sneaks back in.
package cluster

import (
	"fmt"

	"repro/internal/metrics"
)

// LinkClass distinguishes the two traffic classes faults apply to.
type LinkClass uint8

const (
	// LinkUpdate is partial-update traffic: memory node -> switch,
	// switch -> switch, and switch -> compute node.
	LinkUpdate LinkClass = iota
	// LinkWriteback is refreshed-property traffic: compute node ->
	// memory pool (including recovery re-sends after a crash).
	LinkWriteback
)

// String names the link class.
func (c LinkClass) String() string {
	switch c {
	case LinkUpdate:
		return "update"
	case LinkWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// LinkID identifies one directed logical link. Endpoints are stable node
// ids: partitions keep their id even after their serving actor crashes
// and a peer takes over, so a fault plan targets the link, not the
// goroutine that happens to drive it.
type LinkID struct {
	Class    LinkClass
	From, To int
}

// LinkFaults are per-transmission fault probabilities for one link (or
// one class of links). All must lie in [0, 1].
type LinkFaults struct {
	// Drop is the probability a transmission is lost and must be
	// retried (the final attempt of the retry budget always delivers,
	// so a bounded budget still guarantees progress).
	Drop float64
	// Duplicate is the probability a delivered batch arrives twice.
	// Final batches are never duplicated: the final marker is by
	// definition the last message of its link's iteration stream, and a
	// trailing copy would outlive the receiver's drain loop.
	Duplicate float64
	// Delay is the probability a delivery is held up; each delay adds
	// DelayTicks to the virtual clock (per-link delivery stays in
	// order — the protocol is stop-and-wait per message in virtual
	// time, so a delay models queueing latency, not reordering).
	Delay float64
}

func (f LinkFaults) zero() bool { return f.Drop == 0 && f.Duplicate == 0 && f.Delay == 0 }

func (f LinkFaults) validate(what string) error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", f.Drop}, {"duplicate", f.Duplicate}, {"delay", f.Delay}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("cluster: %s %s probability %g outside [0, 1]", what, p.name, p.v)
		}
	}
	return nil
}

// Default protocol parameters, used when the plan leaves them zero.
const (
	defaultMaxAttempts  = 4
	defaultBackoffTicks = 16
	defaultDelayTicks   = 8
)

// FaultPlan is a seeded, deterministic schedule of injected faults. The
// zero value injects nothing (and skips all probability rolls), but the
// sequence/ack protocol itself is always on — an empty plan exercises
// the same code path and produces byte-identical results to a run with
// no plan at all.
type FaultPlan struct {
	// Seed drives every probability roll. Two runs with equal plans
	// inject identical faults.
	Seed uint64
	// Update applies to every partial-update link, Writeback to every
	// write-back link, unless PerLink overrides a specific link.
	Update    LinkFaults
	Writeback LinkFaults
	// PerLink overrides the class defaults for individual links.
	PerLink map[LinkID]LinkFaults
	// Crash schedules memory-node actor failures: Crash[a] = i kills
	// actor a at the start of iteration i (before its traversal). The
	// driver detects the failure — a modeled heartbeat timeout — and
	// re-dispatches the partitions a served to the next alive peer,
	// which rebuilds their active state from the hosts'
	// write-back-fresh property mirrors. At least one actor must carry
	// no crash entry so the pool always has a survivor.
	Crash map[int]int
	// MaxAttempts bounds per-message transmissions (default 4). The
	// last attempt always delivers, modeling escalation to a reliable
	// slow path once the retry budget runs out.
	MaxAttempts int
	// BackoffTicks is the base virtual-time retry backoff (default 16);
	// attempt a adds BackoffTicks << a ticks.
	BackoffTicks int64
	// DelayTicks is the virtual-time cost of one injected delay
	// (default 8).
	DelayTicks int64
}

// Empty reports whether the plan injects no faults at all.
func (p FaultPlan) Empty() bool {
	if !p.Update.zero() || !p.Writeback.zero() || len(p.Crash) > 0 {
		return false
	}
	for _, f := range p.PerLink {
		if !f.zero() {
			return false
		}
	}
	return true
}

// Validate checks the plan's probabilities and parameters. Crash indices
// are validated against the pool width at Run time, when it is known.
func (p FaultPlan) Validate() error {
	if err := p.Update.validate("update-link"); err != nil {
		return err
	}
	if err := p.Writeback.validate("writeback-link"); err != nil {
		return err
	}
	for id, f := range p.PerLink {
		if err := f.validate(fmt.Sprintf("link %s %d->%d", id.Class, id.From, id.To)); err != nil {
			return err
		}
	}
	for a, iter := range p.Crash {
		if a < 0 {
			return fmt.Errorf("cluster: crash schedule names negative memory node %d", a)
		}
		if iter < 0 {
			return fmt.Errorf("cluster: crash of memory node %d at negative iteration %d", a, iter)
		}
	}
	if p.MaxAttempts < 0 {
		return fmt.Errorf("cluster: negative MaxAttempts %d", p.MaxAttempts)
	}
	if p.BackoffTicks < 0 {
		return fmt.Errorf("cluster: negative BackoffTicks %d", p.BackoffTicks)
	}
	if p.DelayTicks < 0 {
		return fmt.Errorf("cluster: negative DelayTicks %d", p.DelayTicks)
	}
	return nil
}

// validateCrashes checks the crash schedule against the actual pool
// width: every index in range, and at least one actor with no entry.
func (p FaultPlan) validateCrashes(memoryNodes int) error {
	for a := range p.Crash {
		if a >= memoryNodes {
			return fmt.Errorf("cluster: crash schedule names memory node %d, pool has %d", a, memoryNodes)
		}
	}
	if len(p.Crash) >= memoryNodes {
		return fmt.Errorf("cluster: crash schedule kills all %d memory nodes; at least one must survive", memoryNodes)
	}
	return nil
}

func (p FaultPlan) withDefaults() FaultPlan {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.BackoffTicks <= 0 {
		p.BackoffTicks = defaultBackoffTicks
	}
	if p.DelayTicks <= 0 {
		p.DelayTicks = defaultDelayTicks
	}
	return p
}

// FaultStats summarizes the faults injected into a run and the recovery
// work the protocol performed. Acks counts every delivered batch (the
// protocol always acknowledges, faults or not); the rest are zero for an
// empty plan.
type FaultStats struct {
	Drops        int64 // transmissions lost and retried
	Duplicates   int64 // batches delivered twice
	Delays       int64 // deliveries held up in virtual time
	Retries      int64 // re-transmissions after a drop
	Acks         int64 // acknowledged deliveries
	Crashes      int64 // memory-node actors killed on schedule
	Redispatches int64 // partitions re-dispatched to a peer after a crash
	VirtualTicks int64 // virtual time spent in backoff and delays
}

// Counter names under which faultStats registers in internal/metrics.
const (
	counterDrops        = "cluster.fault.drops"
	counterDuplicates   = "cluster.fault.duplicates"
	counterDelays       = "cluster.fault.delays"
	counterRetries      = "cluster.protocol.retries"
	counterAcks         = "cluster.protocol.acks"
	counterCrashes      = "cluster.recovery.crashes"
	counterRedispatches = "cluster.recovery.redispatches"
	counterVTicks       = "cluster.vtime.ticks"
)

// faultStats is the live, concurrency-safe counter set actors bump.
type faultStats struct {
	drops, dups, delays *metrics.Counter
	retries, acks       *metrics.Counter
	crashes, redispatch *metrics.Counter
	vticks              *metrics.Counter
}

func newFaultStats(reg *metrics.Registry) *faultStats {
	return &faultStats{
		drops:      reg.Counter(counterDrops),
		dups:       reg.Counter(counterDuplicates),
		delays:     reg.Counter(counterDelays),
		retries:    reg.Counter(counterRetries),
		acks:       reg.Counter(counterAcks),
		crashes:    reg.Counter(counterCrashes),
		redispatch: reg.Counter(counterRedispatches),
		vticks:     reg.Counter(counterVTicks),
	}
}

func (st *faultStats) summary() FaultStats {
	return FaultStats{
		Drops:        st.drops.Value(),
		Duplicates:   st.dups.Value(),
		Delays:       st.delays.Value(),
		Retries:      st.retries.Value(),
		Acks:         st.acks.Value(),
		Crashes:      st.crashes.Value(),
		Redispatches: st.redispatch.Value(),
		VirtualTicks: st.vticks.Value(),
	}
}

// splitmix is one splitmix64 scrambling round: tiny, seed-stable, and
// statistically strong enough for fault rolls (the same generator family
// internal/gen uses for graph synthesis).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll salts so the drop, duplicate, and delay decisions for one
// transmission are independent.
const (
	saltDrop uint64 = 0xd509
	saltDup  uint64 = 0xd01c
	saltDel  uint64 = 0xde1a
)

// injector makes the deterministic per-transmission fault decisions. nil
// means an empty plan: callers skip every roll.
type injector struct {
	plan FaultPlan // defaults applied
}

// newInjector returns nil for an empty plan so the fault-free path pays
// nothing.
func newInjector(plan FaultPlan) *injector {
	if plan.Empty() {
		return nil
	}
	return &injector{plan: plan.withDefaults()}
}

// probs resolves the fault probabilities for one link.
func (in *injector) probs(id LinkID) LinkFaults {
	if f, ok := in.plan.PerLink[id]; ok {
		return f
	}
	if id.Class == LinkWriteback {
		return in.plan.Writeback
	}
	return in.plan.Update
}

// chance maps a salted hash of the transmission coordinates to [0, 1).
func (in *injector) chance(salt uint64, id LinkID, iter, seq, attempt int) float64 {
	h := splitmix(in.plan.Seed ^ salt)
	h = splitmix(h ^ uint64(id.Class)<<48 ^ uint64(uint32(id.From))<<16 ^ uint64(uint32(id.To)))
	h = splitmix(h ^ uint64(uint32(iter))<<32 ^ uint64(uint32(seq)))
	h = splitmix(h ^ uint64(uint32(attempt)))
	return float64(h>>11) * (1.0 / (1 << 53))
}

func (in *injector) drop(id LinkID, iter, seq, attempt int) bool {
	p := in.probs(id).Drop
	return p > 0 && in.chance(saltDrop, id, iter, seq, attempt) < p
}

func (in *injector) duplicate(id LinkID, iter, seq int) bool {
	p := in.probs(id).Duplicate
	return p > 0 && in.chance(saltDup, id, iter, seq, 0) < p
}

func (in *injector) delay(id LinkID, iter, seq int) bool {
	p := in.probs(id).Delay
	return p > 0 && in.chance(saltDel, id, iter, seq, 0) < p
}

// crashIteration returns the iteration at whose start actor a fails, or
// false. Safe on a nil injector (empty plan: nobody crashes).
func (in *injector) crashIteration(a int) (int, bool) {
	if in == nil {
		return 0, false
	}
	iter, ok := in.plan.Crash[a]
	return iter, ok
}

// link is the sender half of one logical channel: it stamps sequence
// numbers, runs the injector, retries drops under the bounded budget
// with exponential virtual-time backoff, and tracks cumulative acks so
// the sender can barrier on full delivery at the end of an iteration.
// Links live for one iteration; sequence numbers and receiver-side dedup
// state reset together, which is what lets a peer actor take over a
// crashed node's links without inheriting its counters.
type link struct {
	id  LinkID
	inj *injector
	st  *faultStats
	ack chan int
	// next is the next sequence number to stamp; acked the highest
	// cumulatively acknowledged one (deliveries are in order per link,
	// so acks are too).
	next  int
	acked int
}

// transmit sends one logical batch: emit performs the actual channel
// send and is invoked once per delivered copy (zero times never — the
// final attempt of the retry budget always delivers). final batches are
// exempt from duplication; see LinkFaults.Duplicate.
func (l *link) transmit(iter int, final bool, emit func(seq int, ack chan<- int)) {
	seq := l.next
	l.next++
	for attempt := 0; ; attempt++ {
		if l.inj != nil && attempt+1 < l.inj.plan.MaxAttempts && l.inj.drop(l.id, iter, seq, attempt) {
			// The transmission is lost; in virtual time the sender's
			// retransmission timer fires immediately.
			l.st.drops.Inc()
			l.st.retries.Inc()
			l.st.vticks.Add(l.inj.plan.BackoffTicks << uint(min(attempt, 32)))
			continue
		}
		if l.inj != nil && l.inj.delay(l.id, iter, seq) {
			l.st.delays.Inc()
			l.st.vticks.Add(l.inj.plan.DelayTicks)
		}
		emit(seq, l.ack)
		if !final && l.inj != nil && l.inj.duplicate(l.id, iter, seq) {
			l.st.dups.Inc()
			emit(seq, l.ack)
		}
		break
	}
	l.drain()
}

// drain consumes acknowledgements without blocking, keeping the ack
// buffer bounded while the iteration is in flight. Consumption timing is
// scheduler-dependent but consumption is order-insensitive — acks only
// raise the cumulative high-water mark — so determinism is unaffected.
func (l *link) drain() {
	for {
		select {
		case s := <-l.ack:
			if s > l.acked {
				l.acked = s
			}
		default:
			return
		}
	}
}

// barrier blocks until every sequence number sent on this link has been
// acknowledged — the sender's end-of-iteration proof of full delivery.
func (l *link) barrier() {
	for l.acked < l.next-1 {
		if s := <-l.ack; s > l.acked {
			l.acked = s
		}
	}
}
