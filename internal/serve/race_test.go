//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
