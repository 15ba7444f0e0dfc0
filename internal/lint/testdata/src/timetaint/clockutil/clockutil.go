// Package clockutil is the laundering fixture: a helper package outside
// the four simulation packages that hands wall-clock and global-rand
// values to simulation code two hops away. While nodeterm covered only
// sim, gen, cluster and kernels, catching this took an interprocedural
// taint analysis; with nodeterm covering every package under
// repro/internal/, the helper is flagged here, at the source call, and
// there is no flow left to track.
package clockutil

import (
	"math/rand"
	"time"
)

// Stamp returns the wall clock as a float — a classic nondeterminism
// source once it reaches simulation state.
func Stamp() float64 {
	return float64(time.Now().UnixNano()) // want "wall-clock time.Now"
}

// Jitter returns a value from the global (unseeded) generator.
func Jitter() float64 {
	return rand.Float64() // want "math/rand.Float64"
}

// Scaled only transforms its argument; nothing to flag.
func Scaled(x float64) float64 {
	return x * 1e-9
}

// Fixed is deterministic; nothing to flag.
func Fixed() float64 {
	return 42
}
