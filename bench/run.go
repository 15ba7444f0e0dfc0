package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type readings map[string]metric

func (m readings) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is one run of one workload: what -out appends and -compare
// reads. The last line of standard output is its four-key subset.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   readings `json:"metrics"`
}

// workloads lists the five in the order the README describes them.
func workloads() []workload {
	return []workload{
		{"mem-kernels", "in-memory kernels through both serial entry points: kernels does nearly all the work, so storage and service changes must not move it", buildMemKernels},
		{"ooc-resident", "the same jobs through the out-of-core store with every segment resident: the tier's hit path, pin and release accounting", buildOOCResident},
		{"ooc-pressure", "the same container with a quarter of its size as local tier: miss path, segment decode and eviction dominate", buildOOCPressure},
		{"sim-sweep", "the paper's architecture sweep: sim, partition, runtime and cluster do the work; host speed beside simulated bytes", buildSimSweep},
		{"serve-mix", "closed-loop tenants against the HTTP service, 70% result-cache hits and 30% distinct jobs: queueing, caches and encoding", buildServeMix},
	}
}

// runWorkload sets the workload up, warms it, measures it and verifies
// every job. With cfg.trace it adds the traced rounds and layer probes.
func runWorkload(w workload, cfg config) (result, error) {
	res := result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Host: hostFingerprint(), Metrics: readings{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	tally := func(rs roundStats) {
		res.Attempted += rs.jobs
		res.Failed += rs.failed
	}

	var (
		e       *env
		setups  []float64
		verifyS float64
		refs    refCache
	)
	closeEnv := func() error {
		if e == nil || e.close == nil {
			return nil
		}
		err := e.close()
		e = nil
		return err
	}
	defer func() {
		if err := closeEnv(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: clean-up: %v\n", w.name, err)
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if err := closeEnv(); err != nil {
			return res, fmt.Errorf("closing set-up %d: %w", i, err)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = w.build(cfg, rec, &refs); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		e.who = fmt.Sprintf("%s seed %d", w.name, cfg.seed)
		tally(e.runRound(0, nil))
		setups = append(setups, time.Since(t0).Seconds()-e.verifyS)
		verifyS += e.verifyS
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2 // the traced rounds and probes take the other half
	}
	var (
		rates, walls, lat    []float64
		wall                 float64
		jobs                 int
		done                 []int     // per round: jobs completed and verified
		floor                []float64 // per job of the list: its fastest round, ms
		nominal, moved, onto int64
	)
	heap := []float64{liveHeapMiB()}
	start := time.Now()
	for r := 1; r <= minRounds || time.Since(start).Seconds() < budget; r++ {
		rs := e.runRound(r, nil)
		tally(rs)
		rates = append(rates, float64(rs.nominal)/rs.wall)
		walls = append(walls, rs.wall)
		lat = append(lat, rs.lat...)
		wall += rs.wall
		jobs += rs.jobs - rs.failed
		done = append(done, rs.jobs-rs.failed)
		nominal, moved, onto = nominal+rs.nominal, moved+rs.moved, onto+rs.movedOn
		heap = append(heap, liveHeapMiB())
		if e.round == nil { // the rounds repeat one list: lat[i] is job i
			if floor == nil {
				floor = append(floor, rs.lat...)
			}
			for i, l := range rs.lat {
				floor[i] = math.Min(floor[i], l)
			}
		}
	}

	m := res.Metrics
	sort.Float64s(rates)
	m.set("setup_s", median(setups), "s")
	m.set("verify_s", verifyS, "s")
	m.set("rounds", float64(len(rates)), "count")
	m.set("edges_per_s.median", median(rates), "1/s")
	m.set("edges_per_s.min", rates[0], "1/s")
	m.set("edges_per_s.max", rates[len(rates)-1], "1/s")
	if floor != nil {
		// A repeated job does the same work every round, and a shared host
		// only ever adds time to it: its fastest round is the reading least
		// touched by the neighbours. The round is rebuilt from those.
		var floorS float64
		for _, l := range floor {
			floorS += l / 1e3
		}
		perRound := float64(nominal) / float64(len(rates))
		m.set("edges_per_s", perRound/floorS, "1/s")
		m.set("jobs_per_s", float64(len(floor))/floorS, "1/s")
		lat = floor
	} else {
		m.set("edges_per_s", float64(nominal)/wall, "1/s")
		m.set("jobs_per_s", float64(jobs)/wall, "1/s")
	}
	m.set("job_p50_ms", percentile(lat, 50), "ms")
	m.set("job_p95_ms", percentile(lat, 95), "ms")
	m.set("job_samples", float64(len(lat)), "count")
	if !supported(len(lat), 95) {
		e.info = append(e.info, fmt.Sprintf("job_p95_ms: fewer than ten of the %d samples lie beyond it", len(lat)))
	}
	if onto > 0 {
		m.set("moved_bytes_per_edge", float64(moved)/float64(onto), "B")
	}
	// Heap is read where every run has done the same work, whatever its
	// -seconds: up to the end of the rounds that always run.
	m.set("live_heap_mb", maxOf(heap[:minRounds+1]), "MiB")

	if cfg.trace {
		var traced []float64
		for r := 0; r < tracedRounds; r++ {
			rs := e.runRound(len(rates)+1+r, rec)
			tally(rs)
			traced = append(traced, rs.wall)
		}
		m.set("trace_overhead_frac", median(traced)/median(walls)-1, "ratio")
		if e.layers != nil {
			if err := e.layers(rec, m, measured{lat, heap, done}); err != nil {
				return res, fmt.Errorf("layer probes: %w", err)
			}
		}
		path := filepath.Join(cfg.workDir, "trace-"+w.name+".json")
		if err := rec.write(path, w.name, cfg.seed); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		e.info = append(e.info, "spans written to "+path)
	}
	m.set("fail_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.Correct = res.Failed == 0
	for _, line := range e.info {
		fmt.Println("#", line)
	}
	return res, nil
}

// tracedRounds is the length of the traced pass.
const tracedRounds = 2

func maxOf(xs []float64) float64 {
	out := math.Inf(-1)
	for _, x := range xs {
		out = math.Max(out, x)
	}
	return out
}
