package sim

// legacyAggregationModel reinstates the pre-fix bounded-buffer
// aggregation accounting (truncate the pass-through estimate toward
// zero, no clamping) that AggregatedUpdateBytes used before the rounding
// bug was fixed. It exists only so the verification harness can prove
// its oracles have teeth: a mutation-smoke test flips it on, re-runs the
// harness, and asserts the seeded historical bug is detected.
//
// The flag must only be toggled by tests, and only around single-threaded
// sections (set before engines run, restore after): engine goroutines
// read it without synchronization.
var legacyAggregationModel bool

// SetLegacyAggregationModelForTest toggles the seeded historical
// aggregation bug and returns a func restoring the previous state.
// Test-only; see legacyAggregationModel.
func SetLegacyAggregationModelForTest(on bool) (restore func()) {
	prev := legacyAggregationModel
	legacyAggregationModel = on
	return func() { legacyAggregationModel = prev }
}
