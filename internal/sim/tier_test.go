package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// tierRun executes BFS on the shared fixture under the given tier.
func tierRun(t *testing.T, g *graph.Graph, tier *TierConfig, workers int) *Run {
	t.Helper()
	const parts = 8
	eng := &Disaggregated{
		Topo:    DefaultTopology(2, parts),
		Assign:  hashAssign(t, g, parts),
		Tier:    tier,
		Workers: workers,
	}
	run, err := eng.Run(context.Background(), g, kernels.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// totalEdgeBytes is the graph's full edge-array footprint — the ceiling
// any tier trace can charge per segment pass.
func totalEdgeBytes(g *graph.Graph) int64 {
	return g.NumEdges() * kernels.EdgeBytes
}

// TestTierPressureSweep drives the memory-tier axis: an unlimited local
// tier pays only compulsory misses, shrinking budgets monotonically
// increase far-memory traffic, and the tier never changes kernel
// results — it is accounting, not execution.
func TestTierPressureSweep(t *testing.T) {
	g := simGraph(t)
	full := totalEdgeBytes(g)
	base := tierRun(t, g, nil, 0)

	segBytes := int64(256)
	budgets := []int64{0, full / 2, full / 10, segBytes} // 0 = unlimited
	var far []int64
	for _, budget := range budgets {
		run := tierRun(t, g, &TierConfig{LocalBytes: budget, SegmentBytes: segBytes}, 0)
		// The tier only changes movement accounting.
		if !reflect.DeepEqual(run.Result.Values, base.Result.Values) ||
			run.Result.Iterations != base.Result.Iterations {
			t.Fatalf("budget %d: tier changed kernel results", budget)
		}
		if run.TotalFarMemoryBytes <= 0 {
			t.Fatalf("budget %d: no far-memory traffic recorded", budget)
		}
		if run.TotalDataMovementBytes != run.TotalFarMemoryBytes {
			t.Fatalf("budget %d: movement %d != far-memory %d under tier accounting",
				budget, run.TotalDataMovementBytes, run.TotalFarMemoryBytes)
		}
		var recSum int64
		for _, rec := range run.Records {
			recSum += rec.FarMemoryBytes
		}
		if recSum != run.TotalFarMemoryBytes {
			t.Fatalf("budget %d: record sum %d != total %d", budget, recSum, run.TotalFarMemoryBytes)
		}
		far = append(far, run.TotalFarMemoryBytes)
	}

	// Unlimited tier: every segment is fetched at most once, so the
	// traffic is bounded by the full edge footprint plus vertex-aligned
	// segment slack.
	if far[0] > full+segBytes*int64(g.NumVertices()) {
		t.Fatalf("unlimited tier moved %d bytes, exceeds segment-rounded footprint", far[0])
	}
	for i := 1; i < len(far); i++ {
		if far[i] < far[i-1] {
			t.Fatalf("far-memory bytes not monotone under shrinking budget: %v", far)
		}
	}
	// The smallest budget must actually thrash relative to unlimited.
	if far[len(far)-1] <= far[0] {
		t.Fatalf("single-segment budget (%d) did not increase traffic over unlimited (%d)",
			far[len(far)-1], far[0])
	}
}

// TestTierDefaultsOff pins the compatibility contract: without a Tier,
// FarMemoryBytes stays zero everywhere and movement accounting is the
// historical per-edge fetch model.
func TestTierDefaultsOff(t *testing.T) {
	g := simGraph(t)
	run := tierRun(t, g, nil, 0)
	if run.TotalFarMemoryBytes != 0 {
		t.Fatalf("TotalFarMemoryBytes = %d with no tier", run.TotalFarMemoryBytes)
	}
	for _, rec := range run.Records {
		if rec.FarMemoryBytes != 0 {
			t.Fatalf("iteration %d: FarMemoryBytes = %d with no tier", rec.Iteration, rec.FarMemoryBytes)
		}
		if rec.DataMovementBytes != rec.EdgeFetchBytes-rec.CachedEdgeBytes {
			t.Fatalf("iteration %d: movement accounting changed without a tier", rec.Iteration)
		}
	}
}

// TestTierWorkerIndependence checks the tier trace is charged in the
// fixed partition-bucket order, so FarMemoryBytes — like every other
// recorded quantity — is bit-identical across worker counts.
func TestTierWorkerIndependence(t *testing.T) {
	g := simGraph(t)
	cfg := &TierConfig{LocalBytes: totalEdgeBytes(g) / 8, SegmentBytes: 512}
	serial := tierRun(t, g, cfg, 1)
	parallel := tierRun(t, g, cfg, 3)
	if !reflect.DeepEqual(serial.Records, parallel.Records) {
		t.Fatal("tier records differ across worker counts")
	}
	if serial.TotalFarMemoryBytes != parallel.TotalFarMemoryBytes {
		t.Fatalf("far-memory totals differ: %d vs %d",
			serial.TotalFarMemoryBytes, parallel.TotalFarMemoryBytes)
	}
}

// TestTierSegmentTiling pins the vertex-aligned tiling: segments cover
// [0, n) contiguously, each vertex maps into exactly one segment, and
// segment sizes sum to the edge footprint.
func TestTierSegmentTiling(t *testing.T) {
	g := simGraph(t)
	ts := newTierState(g, TierConfig{SegmentBytes: 128})
	if len(ts.segOf) != g.NumVertices() {
		t.Fatalf("segOf covers %d vertices, want %d", len(ts.segOf), g.NumVertices())
	}
	prev := int32(0)
	for v, s := range ts.segOf {
		if s < prev || s > prev+1 {
			t.Fatalf("vertex %d: segment %d after %d — tiling not contiguous", v, s, prev)
		}
		prev = s
	}
	if int(prev)+1 != len(ts.segBytes) {
		t.Fatalf("last segment %d but %d segment sizes", prev, len(ts.segBytes))
	}
	var sum int64
	for _, b := range ts.segBytes {
		sum += b
	}
	if sum != totalEdgeBytes(g) {
		t.Fatalf("segment bytes sum %d, want %d", sum, totalEdgeBytes(g))
	}
}

// TestTierSweepOrderEviction pins the tier's policy — the store's — as
// exact counts. N equal segments touched in ascending vertex order, pass
// after pass, under a budget of B segments: the first B load and stay,
// every later one is read through, so each pass after the cold one
// fetches exactly N-B segments (Belady's minimum once a miss may bypass
// the tier; evicting in sweep order cost N(N-B)/(N-1)). A run of touches
// to one read-through segment is one fetch; ending the run between
// touches makes each touch a fetch of its own.
func TestTierSweepOrderEviction(t *testing.T) {
	const nSegs, perSeg = 12, 8
	n := nSegs * perSeg
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	segBytes := int64(perSeg * kernels.EdgeBytes)
	for _, frames := range []int{1, 2, 5, 11, 12, 20} {
		ts := newTierState(g, TierConfig{LocalBytes: int64(frames) * segBytes, SegmentBytes: segBytes})
		if len(ts.segBytes) != nSegs {
			t.Fatalf("fixture: %d segments, want %d", len(ts.segBytes), nSegs)
		}
		pass := func(endRuns bool) (fetched int64) {
			for v := 0; v < n; v++ {
				if endRuns {
					ts.endRun()
				}
				fetched += ts.touch(graph.VertexID(v)) / segBytes
			}
			return fetched
		}
		if cold := pass(false); cold != nSegs {
			t.Fatalf("%d frames: cold pass fetched %d segments, want %d", frames, cold, nSegs)
		}
		through := int64(max(nSegs-frames, 0))
		for p := 0; p < 2*nSegs; p++ {
			if m := pass(false); m != through {
				t.Fatalf("%d frames, warm pass %d: %d segments fetched, want N-B = %d", frames, p, m, through)
			}
		}
		if m := pass(true); m != through*perSeg {
			t.Fatalf("%d frames: a pass of one-touch runs fetched %d segments, want %d", frames, m, through*perSeg)
		}
		if want := int64(min(frames, nSegs)) * segBytes; ts.residentBytes != want || ts.residentBytes > ts.budget {
			t.Fatalf("%d frames: %d bytes resident, want %d within a budget of %d", frames, ts.residentBytes, want, ts.budget)
		}
	}
}
