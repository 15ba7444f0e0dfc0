// Package testkit is what the module's test binaries share: a ceiling on
// a whole suite's run, and a check that an operation hands back every file
// descriptor and file mapping it takes.
package testkit

import (
	"flag"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// suiteCeiling bounds one run of a suite. The suites that use Run take
// seconds, and under a minute with -race.
const suiteCeiling = 2 * time.Minute

// Run runs the suite behind m and returns its exit code, for TestMain to
// pass to os.Exit. Unless the binary is fuzzing or benchmarking, which run
// for as long as they are asked to, it panics with every goroutine's stack
// once the suite has run for suiteCeiling: a lost Unlock or a deadlocked
// actor then fails with the stuck goroutines named, not at go test's
// ten-minute timeout.
func Run(m *testing.M) int {
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
			//lint:ignore panicpath a hung test binary must die with every goroutine's stack
			panic("tests still running after " + suiteCeiling.String() + "; a goroutine is probably deadlocked")
		})
	}
	return m.Run()
}

// LeaksNothing fails t unless op leaves the process holding the file
// descriptors, and the memory mappings of path ("" for none), that it held
// before. op runs once unmeasured, so what the runtime opens on first use
// (the netpoller's descriptors) is not counted, then three times between
// the two counts. The collector is off meanwhile: an *os.File's finalizer
// would otherwise close a leaked descriptor at a time of its choosing.
func LeaksNothing(t testing.TB, path string, op func()) {
	t.Helper()
	op()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds, maps := held(t, path)
	for i := 0; i < 3; i++ {
		op()
	}
	if f, m := held(t, path); f != fds || m != maps {
		t.Errorf("three calls left %d file descriptors and %d mappings of %s open, want %d and %d", f, m, path, fds, maps)
	}
}

// held counts the process's open descriptors and its mappings of path.
func held(t testing.TB, path string) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	if path == "" {
		return len(ents), 0
	}
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps to count mappings in: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasSuffix(line, " "+path) {
			maps++
		}
	}
	return len(ents), maps
}
