package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/kernels"
)

// TestParallelMatchesSerial is the tentpole determinism property: the
// worker pool is purely an execution knob. For every kernel, a trace
// executed at Workers=1 (the serial path) and at several parallel widths
// must price bit-identically under every engine — float values compared
// with ==, and the full per-iteration Records compared with
// reflect.DeepEqual. The staged partition-ordered reduction guarantees
// this; any schedule-dependent float reassociation or counter race fails
// the test.
func TestParallelMatchesSerial(t *testing.T) {
	g := simGraph(t)
	const parts = 8
	a := hashAssign(t, g, parts)
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			serial, err := Execute(context.Background(), g, k, ExecConfig{Assign: a, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{3, 4, 0} {
				par, err := Execute(context.Background(), g, k, ExecConfig{Assign: a, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range allEngines(parts) {
					want, err := e.Price(serial)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Price(par)
					if err != nil {
						t.Fatal(err)
					}
					name := e.Name()
					if len(got.Result.Values) != len(want.Result.Values) {
						t.Fatalf("%s workers=%d: %d values vs %d", name, workers, len(got.Result.Values), len(want.Result.Values))
					}
					for v := range want.Result.Values {
						if got.Result.Values[v] != want.Result.Values[v] {
							t.Fatalf("%s workers=%d: value[%d] = %v, serial %v (not bit-identical)",
								name, workers, v, got.Result.Values[v], want.Result.Values[v])
						}
					}
					if !reflect.DeepEqual(got.Records, want.Records) {
						t.Fatalf("%s workers=%d: per-iteration records differ from serial", name, workers)
					}
					if got.TotalDataMovementBytes != want.TotalDataMovementBytes ||
						got.TotalSyncEvents != want.TotalSyncEvents ||
						got.TotalSeconds != want.TotalSeconds ||
						got.TotalEnergyJoules != want.TotalEnergyJoules {
						t.Fatalf("%s workers=%d: run totals differ from serial", name, workers)
					}
				}
			}
		})
	}
}

// TestAggregatedMoveBytesBoundary pins the bounded-buffer accounting at
// and around the buffer capacity: rounding is half-up (no truncation
// toward zero losing a partial update's bytes), the result never drops
// below the buffered entries themselves, and never exceeds the
// uncompressed stream.
func TestAggregatedMoveBytesBoundary(t *testing.T) {
	const ub = kernels.UpdateBytes
	cases := []struct {
		name                    string
		partials, distinct, buf int64
		wantEntries             int64
	}{
		{"no updates", 0, 0, 4, 0},
		{"unlimited buffer", 100, 10, 0, 10},
		{"exactly at capacity", 100, 10, 10, 10},
		{"one over capacity", 12, 5, 4, 6},
		// 7 distinct, buffer 4: 3 pass through at mean 10/7 ≈ 1.43 each
		// = 4.29 -> rounds to 4; total 8. Truncation would also give 8
		// here, so add a half-up case below.
		{"under mean multiplicity", 10, 7, 4, 8},
		// 3 pass-through at mean 3/2: 4.5 rounds *up* to 5 (total 12
		// entries); truncation toward zero would have reported 11.
		{"half rounds up", 15, 10, 7, 12},
		// Pass-through mass can never push the modeled stream above the
		// real one: 9 partials, 8 distinct, buffer 1 -> 1 + 7*9/8 = 8.875
		// rounds to 9, within the 9 partials.
		{"clamped to partials", 9, 8, 1, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AggregatedUpdateBytes(tc.partials, tc.distinct, tc.buf)
			if got != tc.wantEntries*ub {
				t.Fatalf("AggregatedUpdateBytes(partials=%d, distinct=%d, buf=%d) = %d, want %d entries (%d bytes)",
					tc.partials, tc.distinct, tc.buf, got, tc.wantEntries, tc.wantEntries*ub)
			}
			if tc.buf > 0 && tc.distinct > tc.buf {
				if got < tc.buf*ub {
					t.Fatalf("reported %d bytes, below the %d buffered entries", got, tc.buf)
				}
				if got > tc.partials*ub {
					t.Fatalf("reported %d bytes, above the uncompressed %d", got, tc.partials*ub)
				}
			}
		})
	}
}
