package verify

import (
	"runtime"
	"testing"
	"time"
)

// smallServedScenario is sized for test latency: big enough to exercise
// the full served round trip, small enough to finish in well under a
// second per job.
func smallServedScenario() Scenario {
	return Scenario{
		Seed:         7,
		Generator:    "er",
		Vertices:     128,
		EdgeFactor:   3,
		Kernel:       "pagerank",
		Partitioner:  "hash",
		Partitions:   4,
		ComputeNodes: 2,
		Workers:      2,
	}
}

// TestCheckServedLeavesNoGoroutines pins CheckServed's cleanup contract:
// the oracle boots an HTTP server, a job manager with executor
// goroutines, and a Serve loop — and must join all of them before
// returning. The bound is polled, not slept: goroutine teardown is
// asynchronous after Shutdown returns.
func TestCheckServedLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("served round trip")
	}
	before := runtime.NumGoroutine()
	// Four runs, one slack: a goroutine leaked per call (a Serve loop
	// nobody joins, an executor that misses Stop) must clear the
	// allowance instead of hiding inside it.
	for i := 0; i < 4; i++ {
		if err := CheckServed(smallServedScenario()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// A small slack absorbs runtime-internal goroutines (netpoller,
		// GC workers) that may start during the run and never exit.
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
