package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lowerBetter := rule{bound: 0.10}
	higherBetter := rule{bound: 0.07, higherBetter: true}
	exact := rule{}
	for _, c := range []struct {
		name string
		a, b []float64
		r    rule
		want string
	}{
		{"same readings", []float64{10, 10.1, 9.9}, []float64{10, 10.1, 9.9}, lowerBetter, "within bound"},
		{"5% slower under a 10% bound", []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, lowerBetter, "within bound"},
		{"20% slower", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, lowerBetter, "worse"},
		{"20% faster", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, lowerBetter, "better"},
		{"every run faster, but inside the bound", []float64{10, 10.1, 9.9}, []float64{9.8, 9.7, 9.85}, lowerBetter, "within bound"},
		{"wide spread but every run faster", []float64{10, 14, 9, 12, 9.5}, []float64{8, 8.9, 6, 7, 8.5}, lowerBetter, "better"},
		{"exact count that wavers", []float64{14.25, 14.5}, []float64{14.3, 14.4}, exact, "unresolved"},
		{"throughput down 10% under a 7% bound", []float64{100, 101, 99}, []float64{90, 91, 89}, higherBetter, "worse"},
		{"throughput up 10%", []float64{100, 101, 99}, []float64{110, 111, 109}, higherBetter, "better"},
		{"spread wider than the bound", []float64{10, 14, 7, 12, 8}, []float64{11, 15, 8, 13, 9}, lowerBetter, "unresolved"},
		{"wide spread but every run worse and far off", []float64{10, 12, 8}, []float64{20, 24, 16}, lowerBetter, "worse"},
		{"exact count unchanged", []float64{14.25, 14.25}, []float64{14.25, 14.25}, exact, "within bound"},
		{"exact count up", []float64{14.25, 14.25}, []float64{14.26, 14.26}, exact, "worse"},
		{"exact count down", []float64{14.25, 14.25}, []float64{14.0, 14.0}, exact, "better"},
		{"failures appear", []float64{0, 0}, []float64{0.01, 0.01}, exact, "worse"},
		{"single runs", []float64{10}, []float64{10.5}, lowerBetter, "within bound"},
	} {
		if got, _ := verdict(c.a, c.b, c.r); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func writeResults(t *testing.T, path string, rs ...result) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{
		"end_to_end": [
			{"name": "edges_per_s", "unit": "1/s", "better": "higher", "bound": 0.07},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
		"per_layer": [
			{"name": "moved_bytes_per_edge", "unit": "B", "better": "lower"},
			{"name": "partition.hash.cut_frac", "unit": "ratio", "better": "lower"},
			{"name": "sim.distributed.job_ms", "unit": "ms", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(rate, setup, moved float64) result {
		return result{Workload: "ooc-pressure", Metrics: readings{
			"edges_per_s": {rate, "1/s"}, "setup_s": {setup, "s"}, "moved_bytes_per_edge": {moved, "B"}, "fail_frac": {0, "ratio"}}}
	}
	traced := result{Workload: "sim-sweep", Trace: true, Metrics: readings{
		"partition.hash.cut_frac": {0.94, "ratio"}, "sim.distributed.job_ms": {10, "ms"}, "edges_per_s": {1, "1/s"}}}
	a, b, slow := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"), filepath.Join(dir, "slow.jsonl")
	writeResults(t, a, run(100, 2.0, 14.25), run(101, 2.1, 14.25), run(99, 1.9, 14.25), traced)
	writeResults(t, b, run(100.5, 2.05, 14.25), run(101.5, 2.0, 14.25), run(99.5, 2.1, 14.25), traced)
	writeResults(t, slow, run(80, 2.0, 14.5), run(81, 2.1, 14.5), run(79, 1.9, 14.5))

	var out bytes.Buffer
	if code := compareFiles(&out, bounds, a, b); code != 0 {
		t.Errorf("same commit: exit %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{"edges_per_s", "setup_s", "moved_bytes_per_edge", "fail_frac", "partition.hash.cut_frac"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no row for %s:\n%s", want, out.String())
		}
	}
	// Layer timings have no bound, and a traced run's end-to-end readings
	// come from half the measured time: neither is compared.
	if strings.Contains(out.String(), "sim.distributed.job_ms") || strings.Contains(out.String(), "sim-sweep     edges_per_s") {
		t.Errorf("compared an unbounded or traced reading:\n%s", out.String())
	}

	out.Reset()
	if code := compareFiles(&out, bounds, a, slow); code != 1 {
		t.Errorf("slower commit: exit %d, want 1\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "worse ("); n != 2 { // edges_per_s and moved_bytes_per_edge
		t.Errorf("%d rows worse, want 2:\n%s", n, out.String())
	}
	if code := compareFiles(&out, bounds, a, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
