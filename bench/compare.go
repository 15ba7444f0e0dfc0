package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged.
type rule struct {
	higherBetter bool
	bound        float64 // share of A's median; 0 for exact metrics: any change counts
	traced       bool    // read from the traced runs
}

// rules gathers the bounded end-to-end metrics and the exact metrics.
// Layer timings carry no bound, so there is nothing to hold them to.
func rules(bf benchmarkFile) map[string]rule {
	out := map[string]rule{
		"moved_bytes_per_edge": {},
		"fail_frac":            {},
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = rule{higherBetter: m.Better == "higher", bound: m.Bound}
	}
	for _, m := range bf.PerLayer {
		if _, done := out[m.Name]; !done && exactMetrics[m.Name] {
			out[m.Name] = rule{higherBetter: m.Better == "higher", traced: true}
		}
	}
	return out
}

// verdict judges the runs of B against the runs of A.
//
//	better       B's median is better by more than the bound
//	within bound neither median is off by more than the bound
//	worse        B's median is worse by more than the bound
//	unresolved   the runs of a side spread wider than the bound, so the
//	             medians cannot be told apart — unless every run of B is
//	             better than every run of A (better), or every run is
//	             worse and the median is out of bound (worse)
func verdict(a, b []float64, r rule) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma) // share by which B is worse
	if ma == 0 {
		worse = mb - ma
	}
	if r.higherBetter {
		worse = -worse
	}
	if spread := math.Max(quartileSpread(a), quartileSpread(b)); spread > r.bound {
		lo, hi := minMax(a)
		blo, bhi := minMax(b)
		allBetter, allWorse := bhi < lo, blo > hi
		if r.higherBetter {
			allBetter, allWorse = allWorse, allBetter
		}
		switch {
		case allBetter:
			return "better", worse
		case allWorse && worse > r.bound:
			return "worse", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > r.bound:
		return "worse", worse
	case worse < -r.bound:
		return "better", worse
	}
	return "within bound", worse
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// readResults reads one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples groups a result set's readings by workload and metric.
func samples(rs []result, rl map[string]rule) map[[2]string][]float64 {
	var names []string
	for name := range rl {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[[2]string][]float64)
	for _, r := range rs {
		for _, name := range names {
			if m, ok := r.Metrics[name]; ok && rl[name].traced == r.Trace {
				key := [2]string{r.Workload, name}
				out[key] = append(out[key], m.Value)
			}
		}
	}
	return out
}

// compareFiles prints one row per workload and metric present in both
// result sets and returns the exit code: 1 if any row is worse.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fail(fmt.Errorf("%s: %w", boundsPath, err))
	}
	ra, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	rb, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	rl := rules(bf)
	a, b := samples(ra, rl), samples(rb, rl)
	var keys [][2]string
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	code, rows := 0, 0
	var out bytes.Buffer
	fmt.Fprintf(&out, "%-13s %-42s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "verdict")
	for _, k := range keys {
		if len(b[k]) == 0 {
			continue
		}
		rows++
		r := rl[k[1]]
		v, worse := verdict(a[k], b[k], r)
		if v == "worse" {
			code = 1
		}
		fmt.Fprintf(&out, "%-13s %-42s %14.6g %14.6g %+8.2f%% %6.1f%%  %s (%d vs %d runs)\n",
			k[0], k[1], median(a[k]), median(b[k]), 100*worse, 100*r.bound, v, len(a[k]), len(b[k]))
	}
	if rows == 0 {
		return fail(fmt.Errorf("no workload and metric in both %s and %s", pathA, pathB))
	}
	if _, err := w.Write(out.Bytes()); err != nil {
		return fail(err)
	}
	return code
}
