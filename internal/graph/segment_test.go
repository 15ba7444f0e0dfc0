package graph

import "testing"

// TestSweepVictim checks the victim against the definition — the
// candidate an ascending cyclic sweep from the missing segment reaches
// last — by brute force, over every position of candidate sets that
// straddle the bitset's word boundaries.
func TestSweepVictim(t *testing.T) {
	const n = 200 // four words, the last partly used
	for _, candidates := range [][]int32{
		nil,
		{0},
		{199},
		{63, 64},
		{5, 70, 127, 128, 190},
		{0, 1, 2, 3, 62, 63, 64, 65, 191, 192, 199},
	} {
		idle := make([]uint64, (n+63)/64)
		for _, c := range candidates {
			idle[c>>6] |= 1 << (uint(c) & 63)
		}
		for at := int32(0); at < n; at++ {
			if idle[at>>6]&(1<<(uint(at)&63)) != 0 {
				continue // the segment being loaded is never a candidate
			}
			want := int32(-1)
			for step := int32(1); step < n; step++ { // the last one reached wins
				if c := (at + step) % n; idle[c>>6]&(1<<(uint(c)&63)) != 0 {
					want = c
				}
			}
			if got := SweepVictim(idle, at); got != want {
				t.Fatalf("candidates %v, miss at %d: victim %d, want %d", candidates, at, got, want)
			}
		}
	}
}
