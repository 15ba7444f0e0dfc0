package store

import (
	"os"
	"testing"

	"repro/internal/testkit"
)

// TestMain bounds the suite at two minutes (it takes seconds, under a
// minute with -race). A lost Unlock shows up as a hang: the ceiling turns
// it into a failure whose stack dump names the goroutine parked on the
// lock.
func TestMain(m *testing.M) {
	os.Exit(testkit.Run(m))
}
