package cluster

import (
	"flag"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// suiteCeiling bounds one run of this package's tests. The suite takes
// about a second (under ten with -race -count=2); every actor blocks on
// channels, so a protocol bug is a deadlock, and without a ceiling it
// surfaces only as go test's ten-minute timeout.
const suiteCeiling = 2 * time.Minute

// TestMain panics with every goroutine's stack when the suite outlives
// suiteCeiling — the stacks name the actors that are stuck and the
// channel each is parked on. Fuzzing and benchmarks run for as long as
// they are asked to and are left alone.
func TestMain(m *testing.M) {
	flag.Parse()
	openEnded := false
	for _, name := range []string{"test.fuzz", "test.bench"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			openEnded = true
		}
	}
	if !openEnded {
		time.AfterFunc(suiteCeiling, func() {
			debug.SetTraceback("all")
			panic("cluster: tests still running after " + suiteCeiling.String() + "; an actor is probably deadlocked")
		})
	}
	os.Exit(m.Run())
}
