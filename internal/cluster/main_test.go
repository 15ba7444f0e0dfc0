package cluster

import (
	"os"
	"testing"

	"repro/internal/testkit"
)

// TestMain bounds the suite at two minutes. It takes about a second
// (under ten with -race -count=2); every actor blocks on channels, so a
// protocol bug is a deadlock, and the ceiling's stack dump names the
// actors that are stuck and the channel each is parked on.
func TestMain(m *testing.M) {
	os.Exit(testkit.Run(m))
}
