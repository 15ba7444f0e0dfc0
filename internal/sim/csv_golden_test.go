package sim

import (
	"strings"
	"testing"

	"repro/internal/kernels"
)

// TestWriteRecordsCSVGolden pins the ledger format byte-for-byte on a
// hand-built run: any column added, removed, reordered, or reformatted
// must show up here as a deliberate golden update, keeping external
// tooling that parses the CSV honest.
func TestWriteRecordsCSVGolden(t *testing.T) {
	run := &Run{
		Engine: "disaggregated-ndp+inc",
		Kernel: "pagerank",
		Records: []Record{
			{
				Iteration: 0, FrontierSize: 4, ActiveEdges: 9, CrossEdges: 5,
				PartialUpdates: 7, DistinctDsts: 6, Offloaded: true,
				EdgeFetchBytes: 72, UpdateMoveBytes: 112, WritebackBytes: 64,
				AggregatedMoveBytes: 96, DataMovementBytes: 160, SyncEvents: 10,
				EstimatedSeconds: 0.25, EnergyJoules: 0.125,
			},
			{
				Iteration: 1, FrontierSize: 2, ActiveEdges: 3, CrossEdges: 1,
				PartialUpdates: 3, DistinctDsts: 3, Offloaded: false,
				EdgeFetchBytes: 24, UpdateMoveBytes: 48, WritebackBytes: 16,
				AggregatedMoveBytes: 48, DataMovementBytes: 24, SyncEvents: 2,
				EstimatedSeconds: 0.0625, EnergyJoules: 0.03125,
			},
		},
	}
	const golden = "iteration,frontier,active_edges,cross_edges,partial_updates,distinct_dsts,offloaded,edge_fetch_bytes,update_move_bytes,writeback_bytes,aggregated_move_bytes,data_movement_bytes,sync_events,est_seconds,energy_joules\n" +
		"0,4,9,5,7,6,true,72,112,64,96,160,10,0.25,0.125\n" +
		"1,2,3,1,3,3,false,24,48,16,48,24,2,0.0625,0.03125\n"
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, run.Records); err != nil {
		t.Fatal(err)
	}
	if sb.String() != golden {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestWriteRecordsCSVStable runs a real engine twice and writes both
// ledgers: the header and every row must keep their column counts in
// lockstep, and the two outputs must be byte-identical — the CSV layer
// adds no nondeterminism on top of the simulator's.
func TestWriteRecordsCSVStable(t *testing.T) {
	g := simGraph(t)
	a := hashAssign(t, g, 4)
	outputs := make([]string, 2)
	for i := range outputs {
		run, err := execPrice(&DisaggregatedNDP{Topo: DefaultTopology(2, 4), InNetworkAggregation: true},
			g, kernels.NewPageRank(5, 0.85), ExecConfig{Assign: a})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := WriteRecordsCSV(&sb, run.Records); err != nil {
			t.Fatal(err)
		}
		outputs[i] = sb.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatal("two identical runs produced different CSV bytes")
	}
	lines := strings.Split(strings.TrimSuffix(outputs[0], "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines, want header + rows", len(lines))
	}
	cols := strings.Count(lines[0], ",")
	for i, line := range lines[1:] {
		if got := strings.Count(line, ","); got != cols {
			t.Fatalf("row %d has %d columns, header has %d", i, got+1, cols+1)
		}
	}
}
