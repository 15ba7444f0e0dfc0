package main

import (
	"math"
	"sort"
)

// median returns the median of xs (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the samples at or below it. A failed job enters as
// +Inf, so it counts as missing any latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supported reports whether the p-th percentile of n samples has at
// least ten samples beyond it — the rule for which tail percentile a
// sample count can carry.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= 10
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the spread the driver holds against a
// metric's bound. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method), so the figure matches the driver's.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j, d := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
