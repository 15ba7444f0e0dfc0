// Command bench is the repository's benchmark: five workloads, each a
// fixed seed-derived job list run in rounds through the public entry
// points of the layers it stresses, with every result verified.
//
//	go run ./bench -workload mem-kernels            one workload, seed 42
//	go run ./bench -workload all -out runs.jsonl    all five, results appended
//	go run ./bench -workload ooc-pressure -trace 1  the traced pass: per-layer rows
//	go run ./bench -compare a.jsonl b.jsonl         two result sets against the bounds
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed of the inputs: graphs, sources, job stream")
	seconds := fs.Float64("seconds", 10, "length of the measured phase (whole rounds, at least three)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "append each result as one JSON line to this file")
	dir := fs.String("dir", ".bench_work", "directory for temporary containers and the span file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A B")
	bounds := fs.String("bounds", "BENCHMARK.json", "where -compare reads the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, *bounds, fs.Arg(0), fs.Arg(1))
	}

	var todo []workload
	for _, w := range workloads() {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name|all> [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// All load comes from this process: at most nproc clients on nproc
	// threads, the manager given as many executors.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *dir, nproc: nproc}

	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, cfg)
		if err != nil {
			// No result line: the run did not measure anything to report.
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, cfg.seed, err)
			return 1
		}
		printTable(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Println(resultLine(res))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d jobs failed\n", w.name, cfg.seed, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}

// printTable prints every metric the run measured, by name, with unit.
func printTable(res result) {
	h := res.Host
	fmt.Printf("# %s seed=%d trace=%v | nproc=%d GOMAXPROCS=%d %s %s\n",
		res.Workload, res.Seed, res.Trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// resultLine is the last line of output: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func resultLine(res result) string {
	catalog := endToEnd
	if res.Trace {
		catalog = perLayer
	}
	line := struct {
		Correct   bool     `json:"correct"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Metrics   readings `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, readings{}}
	for _, c := range catalog {
		v := res.Metrics[c.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; a failed job's +Inf latency shows in failed
		}
		line.Metrics[c.name] = metric{v, c.unit}
	}
	b, _ := json.Marshal(line) // finite numbers and strings: cannot fail
	return string(b)
}

func appendResult(path string, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
