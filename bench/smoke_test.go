package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestEveryWorkloadTiny runs each workload's whole command path — three
// set-ups, warm-up, measured rounds, traced rounds, layer probes, span
// file — on inputs a few hundred vertices large, so the harness cannot
// rot. It checks shape, not speed.
func TestEveryWorkloadTiny(t *testing.T) {
	before := runtime.NumGoroutine()
	owned := map[string]bool{}
	for _, w := range workloads() {
		dir := t.TempDir()
		cfg := config{seed: 3, seconds: 0, trace: true, workDir: dir, nproc: 2, tiny: true}
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, c := range endToEnd {
			if v := res.Metrics[c.name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, c.name, v)
			}
		}
		for _, c := range perLayer {
			if m, ok := res.Metrics[c.name]; ok {
				owned[c.name] = true
				if m.Unit != c.unit {
					t.Errorf("%s: %s has unit %q, catalog says %q", w.name, c.name, m.Unit, c.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, c.name, m.Value)
				}
			}
		}
		for _, line := range []string{resultLine(res), resultLine(result{Metrics: res.Metrics})} {
			var parsed struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Errorf("%s: result line does not parse: %v", w.name, err)
			}
			if n := len(parsed.Metrics); n != len(perLayer) && n != len(endToEnd) {
				t.Errorf("%s: result line has %d metrics", w.name, n)
			}
		}
		// Temporary containers are gone; only the span file stays.
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 1 || left[0].Name() != "trace-"+w.name+".json" {
			var names []string
			for _, f := range left {
				names = append(names, f.Name())
			}
			t.Errorf("%s left behind %v, want only the span file", w.name, names)
		}
	}
	for _, c := range perLayer {
		if !owned[c.name] {
			t.Errorf("no workload reports %s", c.name)
		}
	}
	// The loopback server, its manager's executors and the clients'
	// connections are all stopped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the result
// lines the command prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string                     `json:"paths"`
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("workloads %v, the command has %v", names, want)
	}
	for i, w := range workloads() {
		if bf.Workloads[i].Why != w.why {
			t.Errorf("%s: why is %q, the command says %q", w.name, bf.Workloads[i].Why, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, catalog has %d and %d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		if c := endToEnd[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end_to_end[%d] is %+v, catalog says %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
	for i, m := range bf.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] is %+v, catalog says %+v", i, m, c)
		}
	}
}
