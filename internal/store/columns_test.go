package store

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// TestPinEdgesChecksWeightBytes flips one byte of each segment's weight
// column in turn. PinEdges never decodes a weight, but the CRC still
// covers the whole payload, so it must fail with ErrCorrupt, pin
// nothing and book no miss — and so must Pin and Materialize.
func TestPinEdgesChecksWeightBytes(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := probe.segs
	mustClose(t, probe)
	flipped := 0
	for i, m := range segs {
		if m.edges == 0 {
			continue
		}
		bad := append([]byte(nil), data...)
		bad[m.off+m.len-1-uint64(i)%(4*m.edges)] ^= 0x10 // a byte inside the trailing weights
		st, err := OpenBytes(bad, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, pin := range map[string]func(graph.VertexID) (graph.Segment, error){"PinEdges": st.PinEdges, "Pin": st.Pin} {
			if _, err := pin(graph.VertexID(m.first)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("segment %d: %s with a flipped weight byte: err = %v, want ErrCorrupt", i, name, err)
			}
		}
		if _, err := st.Materialize(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment %d: Materialize with a flipped weight byte: err = %v, want ErrCorrupt", i, err)
		}
		if s := st.Stats(); s != (Stats{}) {
			t.Fatalf("segment %d: stats %+v after failed reads, want zero", i, s)
		}
		mustClose(t, st)
		flipped++
	}
	if flipped < 4 {
		t.Fatalf("fixture: only %d segments carry weights", flipped)
	}
}

// TestFailedWeightUpgradeKeepsEdges loads a frame's edge ids, then damages
// its weight bytes underneath the handle (OpenBytes reads the caller's
// slice in place) so the weighted Pin that would add the column fails its
// CRC. The failure must leave the pins as they were and the frame's edge
// ids still resident and pinnable as a hit; mending the bytes lets the
// upgrade go through.
func TestFailedWeightUpgradeKeepsEdges(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(data, Options{LocalBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const idx = 2
	m := st.segs[idx]
	v := graph.VertexID(m.first)
	held, err := st.PinEdges(v)
	if err != nil {
		t.Fatal(err)
	}
	if held.Weights != nil || st.frames[idx].hasWeights {
		t.Fatal("PinEdges lent or loaded the weight column")
	}
	wantEdges := append([]graph.VertexID(nil), held.Edges...)
	weightByte := m.off + m.len - 2
	data[weightByte] ^= 0x08

	before := st.Stats()
	if _, err := st.Pin(v); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("upgrade over damaged weights: err = %v, want ErrCorrupt", err)
	}
	if s := st.Stats(); s != before {
		t.Fatalf("failed upgrade moved stats %+v -> %+v", before, s)
	}
	if !reflect.DeepEqual(held.Edges, wantEdges) {
		t.Fatal("a failed upgrade changed the edge ids a handle holds")
	}
	held.Release()
	// Again with no handle on the frame.
	if _, err := st.Pin(v); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second upgrade over damaged weights: err = %v, want ErrCorrupt", err)
	}
	if s := st.Stats(); s.Pins != 0 {
		t.Fatalf("%d pins after a failed upgrade of an unpinned frame", s.Pins)
	}
	if f := st.frames[idx]; !f.resident || f.hasWeights {
		t.Fatalf("frame after a failed upgrade: resident %v, weights %v; want its edge ids alone", f.resident, f.hasWeights)
	}

	again, err := st.PinEdges(v)
	if err != nil {
		t.Fatalf("edge ids unpinnable after a failed upgrade: %v", err)
	}
	if s := st.Stats(); s.Hits != before.Hits+1 || s.Misses != before.Misses {
		t.Fatalf("re-pinning the edge ids was not a hit: %+v, before %+v", s, before)
	}
	if again.Weights != nil || !reflect.DeepEqual(again.Edges, wantEdges) {
		t.Fatal("re-pinned edge ids differ from the first load's, or came with weights")
	}
	again.Release()

	data[weightByte] ^= 0x08
	full, err := st.Pin(v)
	if err != nil {
		t.Fatalf("upgrade over mended bytes: %v", err)
	}
	assertSegmentMatches(t, st, full, g)
	full.Release()
	if s := st.Stats(); s.Misses != before.Misses+1 || s.FarBytes != before.FarBytes+int64(m.len) ||
		s.ResidentBytes != before.ResidentBytes+st.segCost(idx, true)-st.segCost(idx, false) {
		t.Fatalf("upgrade booked %+v, before %+v: want one miss, the payload and the weight column", s, before)
	}
	mustClose(t, st)
}

// TestMaterializeBypassesTier materializes a full budgeted handle
// holding resident frames of both kinds and one read-through pin: the
// graph must equal the encoded one, and the tier must not notice — same
// Stats, same frames.
func TestMaterializeBypassesTier(t *testing.T) {
	g := testGraphs(t)["community"]
	st := openFixture(t, g, 256, 2048)
	n := st.NumSegments()
	for i := 0; i < n; i++ {
		pin := st.PinEdges
		if i%3 == 0 {
			pin = st.Pin
		}
		sg, err := pin(graph.VertexID(st.segs[i].first))
		if err != nil {
			t.Fatal(err)
		}
		sg.Release()
	}
	held := pinSeg(t, st, n-1)
	before := st.Stats()
	frames := append([]frame(nil), st.frames...)
	if before.ResidentBytes == 0 || before.ReadThroughs == 0 {
		t.Fatalf("fixture: stats %+v, want a full tier that has read through", before)
	}
	mat, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, mat, g)
	if s := st.Stats(); s != before {
		t.Fatalf("Materialize moved the tier's stats %+v -> %+v", before, s)
	}
	for i := range frames {
		if f := st.frames[i]; f.resident != frames[i].resident || f.hasWeights != frames[i].hasWeights {
			t.Fatalf("Materialize changed frame %d: %+v -> %+v", i, frames[i], f)
		}
	}
	held.Release()
	mustClose(t, st)
}

// TestMixedTrafficOneHandle runs weight-free and weighted kernels in turn
// — BFS, SSSP, CC, SSSP, PageRank — on one weighted handle under a budget
// of a few frames, on both machines, so frames load edge-only, gain their
// weights in place, and segments and weights are read through in every
// combination. Each result is bit-identical to the in-memory push run on
// the same machine; no pin outlives a run; the tier stays within its
// budget; and the stats repeat exactly and equal the recorded ones.
func TestMixedTrafficOneHandle(t *testing.T) {
	g := testGraphs(t)["community"]
	data, err := EncodeGraph(g, 256)
	if err != nil {
		t.Fatal(err)
	}
	var mem kernels.Source = g
	probe, err := OpenBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var maxCost int64
	for i := 0; i < probe.NumSegments(); i++ {
		maxCost = max(maxCost, probe.segCost(int32(i), true))
	}
	mustClose(t, probe)
	budget := 4 * maxCost
	order := []string{"bfs", "sssp", "cc", "sssp", "pagerank"}
	recorded := map[kernels.Machine]Stats{
		kernels.Serial: {Hits: 164, Misses: 2522, ReadThroughs: 2516, FarBytes: 439731, ResidentBytes: 1124, PeakResidentBytes: 1124},
		kernels.Staged: {Hits: 269, Misses: 4358, ReadThroughs: 4352, FarBytes: 762188, ResidentBytes: 1124, PeakResidentBytes: 1124},
	}
	for machine, want := range recorded {
		opt := kernels.Options{Direction: kernels.DirectionPush}
		if machine == kernels.Staged {
			opt.Workers = 1 // one worker pins in a fixed order, so the stats repeat
		}
		var first []Stats
		for rep := 0; rep < 5; rep++ {
			st, err := OpenBytes(data, Options{LocalBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			var trail []Stats
			for _, name := range order {
				ref, err := kernels.RunOn(context.Background(), mem, mustKernel(t, name), machine, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := kernels.RunOn(context.Background(), st, mustKernel(t, name), machine, opt)
				if err != nil {
					t.Fatalf("machine %d, %s: %v", machine, name, err)
				}
				assertResultsIdentical(t, name, got, ref)
				s := st.Stats()
				if s.Pins != 0 || s.PeakResidentBytes > budget {
					t.Fatalf("machine %d, after %s: stats %+v, budget %d", machine, name, s, budget)
				}
				trail = append(trail, s)
			}
			mustClose(t, st)
			if rep == 0 {
				first = trail
			} else if !reflect.DeepEqual(trail, first) {
				t.Fatalf("machine %d, repetition %d: stats %+v, first run %+v", machine, rep, trail, first)
			}
		}
		if got := first[len(first)-1]; got != want {
			t.Errorf("machine %d: stats %+v differ from the recorded %+v", machine, got, want)
		}
	}
}
