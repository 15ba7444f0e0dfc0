package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100: got %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p50 of four samples is the second.
	if got := percentile([]float64{10, 20, 30, 40}, 50); got != 20 {
		t.Errorf("p50 of four: got %v, want 20", got)
	}
	// A failed job is +Inf and so misses any limit the percentile reaches.
	if got := percentile([]float64{1, 2, 3, math.Inf(1)}, 95); !math.IsInf(got, 1) {
		t.Errorf("p95 with a failure in the tail: got %v, want +Inf", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true},  // rank 190, ten beyond
		{199, 95, false}, // rank 190, nine beyond
		{1000, 99, true}, // rank 990
		{999, 99, false}, // rank 990, nine beyond
		{20, 50, true},   // rank 10
		{19, 50, false},  // rank 10, nine beyond
		{2400, 99.9, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The expected values are Python's: statistics.quantiles(xs, n=4) gives
// [2.75, 5.5, 8.25] for 1..10 and [1.5, 3.0, 4.5] for 1..5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("1..10: got %v, want %v", got, want)
	}
	if got, want := quartileSpread([]float64{1, 2, 3, 4, 5}), (4.5-1.5)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("1..5: got %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one sample: got %v, want 0", got)
	}
}
