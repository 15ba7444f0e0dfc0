package verify

import (
	"context"
	"reflect"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/store"
)

// OracleStoreDiff tags store-vs-RAM differential failures.
const OracleStoreDiff = "store-differential"

// storeSegmentBytes keeps scenario containers multi-segment so the
// out-of-core path actually crosses segment boundaries and, at the
// thrashing budget, actually reads segments through.
const storeSegmentBytes = 1 << 10

// checkStore is the out-of-core oracle: the scenario graph round-trips
// through a gcsr2 container (data) and the kernel replays from it
// under both an unlimited local tier and a deliberately thrashing one.
// Every replay must be bit-identical — values AND traversal telemetry —
// to the serial push reference on the in-RAM graph (a container serves
// no in-adjacency, so the engine only ever pushes over it and the
// comparison cannot use Check's auto-direction serial result), and the
// store must come back to zero outstanding pins with a clean close.
func checkStore(g *graph.Graph, data []byte, fresh func() kernels.Kernel) error {
	want, err := kernels.RunSerialWith(g, fresh(), kernels.Options{Direction: kernels.DirectionPush})
	if err != nil {
		return err
	}
	var wantEdgeWork int64
	for _, ae := range want.ActiveEdges {
		wantEdgeWork += ae
	}
	for _, budget := range []int64{0, 2 * storeSegmentBytes} {
		st, err := store.OpenBytes(data, store.Options{LocalBytes: budget})
		if err != nil {
			return failf(OracleStoreDiff, "open container (budget %d): %v", budget, err)
		}
		if st.NumVertices() != g.NumVertices() || st.NumEdges() != g.NumEdges() {
			return failf(OracleStoreDiff, "container shape V=%d E=%d, graph V=%d E=%d",
				st.NumVertices(), st.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		got, err := kernels.RunOn(context.Background(), st, fresh(), kernels.Serial, kernels.Options{})
		if err != nil {
			return failf(OracleStoreDiff, "out-of-core run (budget %d): %v", budget, err)
		}
		if err := ValuesBitEqual(got.Values, want.Values); err != nil {
			return failf(OracleStoreDiff, "budget %d: values diverged from serial push reference: %v", budget, err)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			return failf(OracleStoreDiff, "budget %d: iterations/converged %d/%v, want %d/%v",
				budget, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		if !reflect.DeepEqual(got.FrontierSizes, want.FrontierSizes) ||
			!reflect.DeepEqual(got.ActiveEdges, want.ActiveEdges) {
			return failf(OracleStoreDiff, "budget %d: traversal telemetry diverged", budget)
		}
		stats := st.Stats()
		if stats.Pins != 0 {
			return failf(OracleStoreDiff, "budget %d: %d outstanding pins after run", budget, stats.Pins)
		}
		if wantEdgeWork > 0 && stats.Misses == 0 {
			// Sanity on the oracle itself: the kernel traversed edges, so
			// it must have pulled segments from the container — otherwise
			// this comparison proved nothing.
			return failf(OracleStoreDiff, "budget %d: no segment misses recorded", budget)
		}
		if err := st.Close(); err != nil {
			return failf(OracleStoreDiff, "budget %d: close: %v", budget, err)
		}
	}
	return nil
}
