package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint printed with every result: throughput here is
// this sandbox's, not a device's.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostFingerprint() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()}
}

// cpuModel reads the first model name from /proc/cpuinfo, "unknown"
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
