package sim

import (
	"fmt"
	"io"
)

// WriteRecordsCSV writes a per-iteration ledger (a Run's or a
// core.Result's Records) as CSV — the raw data behind the Figure 7 style
// plots, for external tooling.
func WriteRecordsCSV(w io.Writer, records []Record) error {
	if _, err := fmt.Fprintln(w, "iteration,frontier,active_edges,cross_edges,partial_updates,distinct_dsts,offloaded,edge_fetch_bytes,update_move_bytes,writeback_bytes,aggregated_move_bytes,data_movement_bytes,sync_events,est_seconds,energy_joules"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%t,%d,%d,%d,%d,%d,%d,%g,%g\n",
			r.Iteration, r.FrontierSize, r.ActiveEdges, r.CrossEdges,
			r.PartialUpdates, r.DistinctDsts, r.Offloaded,
			r.EdgeFetchBytes, r.UpdateMoveBytes, r.WritebackBytes,
			r.AggregatedMoveBytes, r.DataMovementBytes, r.SyncEvents,
			r.EstimatedSeconds, r.EnergyJoules); err != nil {
			return err
		}
	}
	return nil
}
