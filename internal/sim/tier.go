package sim

import (
	"repro/internal/graph"
	"repro/internal/kernels"
)

// TierConfig models a host-local memory tier in front of the far-memory
// pool (the out-of-core counterpart of internal/store's tier of
// decompressed segments). Edge lists are grouped into contiguous
// segments of roughly SegmentBytes each — the same vertex-aligned
// tiling the gcsr2 container uses — and the hosts keep at most
// LocalBytes of segments resident, evicting by the store's rule: the
// resident segment an ascending sweep from the missing one reaches last
// (graph.SweepVictim, shared with the store so the model runs the
// policy the system runs).
// Touching a frontier vertex whose segment is not resident charges the
// whole segment's bytes to Record.FarMemoryBytes: far memory is fetched
// at segment granularity, not per edge, which is what makes local-tier
// pressure a movement axis (small tiers refetch most of a pass; large
// tiers reduce the traffic to compulsory misses).
type TierConfig struct {
	// LocalBytes is the resident-segment budget. <= 0 means unlimited:
	// every segment stays resident after its first (compulsory) fetch.
	LocalBytes int64
	// SegmentBytes is the fetch granularity; <= 0 selects 1 MiB, the
	// gcsr2 default.
	SegmentBytes int64
}

// tierSegmentBytes resolves the granularity default.
func (c TierConfig) tierSegmentBytes() int64 {
	if c.SegmentBytes <= 0 {
		return 1 << 20
	}
	return c.SegmentBytes
}

// tierState is the segment-granular tier the simulator consults while
// bucketing the frontier. All state is preallocated; touch is plain
// array arithmetic so the per-iteration charge stays inside the
// simulator's zero-allocation steady state.
type tierState struct {
	budget int64
	// segOf maps each vertex to the segment holding its edge list;
	// segBytes is each segment's fetch cost.
	segOf    []int32
	segBytes []int64

	// resident has bit s set while segment s is in the tier. Nothing is
	// pinned in the model, so every resident segment is evictable.
	resident []uint64
	// residentBytes tracks the tier's occupancy against budget.
	residentBytes int64
}

// newTierState tiles the graph's edge array into vertex-aligned
// segments of about cfg.SegmentBytes and builds the residency bitset.
// Every vertex's edge list lives wholly inside one segment, as in the
// gcsr2 writer, but the boundaries differ: this closes a segment before
// the vertex that would take it past the target, the writer after the
// vertex that reaches it, so segment counts of the two do not yet agree
// (ROADMAP item 1, tier cross-validation).
func newTierState(g *graph.Graph, cfg TierConfig) *tierState {
	n := g.NumVertices()
	segTarget := cfg.tierSegmentBytes()
	t := &tierState{
		budget: cfg.LocalBytes,
		segOf:  make([]int32, n),
	}
	var cur int64
	seg := int32(0)
	for v := 0; v < n; v++ {
		cost := g.OutDegree(graph.VertexID(v)) * kernels.EdgeBytes
		if cur > 0 && cur+cost > segTarget {
			t.segBytes = append(t.segBytes, cur)
			seg++
			cur = 0
		}
		t.segOf[v] = seg
		cur += cost
	}
	if n > 0 {
		t.segBytes = append(t.segBytes, cur)
	}
	t.resident = make([]uint64, (len(t.segBytes)+63)/64)
	return t
}

// touch records an access to v's segment and returns the far-memory
// bytes the access cost: zero on a hit, the whole segment on a miss.
// Misses evict in sweep order until the segment fits; a segment larger
// than the entire budget still loads (transient overshoot, the same
// rule the store applies to pinned segments).
func (t *tierState) touch(v graph.VertexID) int64 {
	s := t.segOf[v]
	word, bit := s>>6, uint64(1)<<(uint(s)&63)
	if t.resident[word]&bit != 0 {
		return 0
	}
	need := t.segBytes[s]
	if t.budget > 0 {
		for t.residentBytes+need > t.budget {
			victim := graph.SweepVictim(t.resident, s)
			if victim < 0 {
				break
			}
			t.resident[victim>>6] &^= 1 << (uint(victim) & 63)
			t.residentBytes -= t.segBytes[victim]
		}
	}
	t.resident[word] |= bit
	t.residentBytes += need
	return need
}
