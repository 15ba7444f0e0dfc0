package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// config is what the command line fixes for one run.
type config struct {
	seed    uint64
	seconds float64 // length of the measured phase
	trace   bool
	workDir string // temp containers and the span file live here
	nproc   int
	// tiny shrinks every input so the smoke test can run all workloads in
	// seconds. It is not a flag: benchmark sizes are constants.
	tiny bool
}

// setupRepeats is how often a run sets up; setup_s is the median, so one
// slow page-cache or scheduler hiccup does not decide it.
const setupRepeats = 3

// minRounds measured rounds run even when one round outlasts -seconds.
const minRounds = 3

// prTolerance bounds PageRank's distance from the push-only reference:
// engines may reassociate the float sum, never change it.
const prTolerance = 1e-9

// outcome is what one job hands back for verification.
type outcome struct {
	values []float64 // vertex property vector
	exact  []int64   // simulated totals, traffic, retries: must repeat round to round
	// moved is the job's share of moved_bytes_per_edge's numerator; its
	// nominal edges enter the denominator only when counted is set.
	moved   int64
	counted bool
	// counts are sampled at the job's boundaries and land on its span.
	counts map[string]int64
}

// reference is the push-only serial answer for one (graph, kernel,
// source): the work a job delivers and the values it must produce.
type reference struct {
	nominal int64     // Σ ActiveEdges: identical for every engine
	digest  [32]byte  // of the reference values
	rank    []float64 // PageRank only: the vector the tolerance is held against
}

// job is one kernel run to completion through one public entry point.
type job struct {
	class string // span name; per-class layer metrics key on it
	label string // names the job on stderr when it fails
	ref   *reference
	run   func(ctx context.Context) (outcome, error)

	// warm-up round's answer: PageRank and exact counts must repeat it.
	warmDigest [32]byte
	warmExact  []int64
}

// roundStats is one pass over the job list.
type roundStats struct {
	wall    float64 // seconds inside timed regions
	nominal int64   // nominal edges of the verified jobs
	moved   int64   // bytes moved by the verified jobs
	movedOn int64   // nominal edges of the jobs that count bytes moved
	jobs    int     // attempted
	failed  int
	lat     []float64 // per-job latency, ms; +Inf for a failed job
}

// env is a workload after set-up.
type env struct {
	jobs []*job
	// round runs the r-th pass (0 is the warm-up). nil selects runJobs
	// over jobs, the sequential single-client loop.
	round func(r int, rec *recorder) roundStats
	// layers runs the traced pass's probes of single layers.
	layers func(rec *recorder, m readings, meas measured) error
	close  func() error
	// who names the run on stderr when a job fails: workload and seed.
	who string
	// verifyS is the part of build spent computing references; it is
	// reported as verify_s and kept out of setup_s.
	verifyS float64
	// info is set-up facts worth a line of output (sizes, budgets).
	info []string
}

// measured is what the untraced rounds of a run hand to the probes.
type measured struct {
	lat  []float64 // per-job latency, ms
	heap []float64 // live heap at the round boundaries, MiB
	done []int     // per round: jobs completed and verified
}

// refCache carries the references from the first set-up of a run to the
// repeats: same seed, same inputs, same answers.
type refCache struct {
	kernel []*reference
	served []served
}

// workload is a named set of inputs and a job list.
type workload struct {
	name string
	why  string
	// build generates inputs and the job list from the seed and attaches
	// the references. Spans of the set-up calls go to rec.
	build func(cfg config, rec *recorder, refs *refCache) (*env, error)
}

func digestValues(vals []float64) [32]byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return sha256.Sum256(buf)
}

// verify holds a job's outcome against its reference and, after the
// warm-up, against the warm-up's own answer.
func (j *job) verify(out outcome, warm bool) error {
	d := digestValues(out.values)
	if j.ref.rank == nil {
		if d != j.ref.digest {
			return fmt.Errorf("values differ from the push-only reference")
		}
	} else {
		if len(out.values) != len(j.ref.rank) {
			return fmt.Errorf("%d values, reference has %d", len(out.values), len(j.ref.rank))
		}
		for i, v := range out.values {
			if diff := math.Abs(v - j.ref.rank[i]); !(diff <= prTolerance) {
				return fmt.Errorf("vertex %d is %g from the reference (limit %g)", i, diff, prTolerance)
			}
		}
	}
	if warm {
		j.warmDigest, j.warmExact = d, out.exact
		return nil
	}
	if d != j.warmDigest {
		return fmt.Errorf("values differ from the warm-up round's")
	}
	if len(out.exact) != len(j.warmExact) {
		return fmt.Errorf("%d exact counts, warm-up had %d", len(out.exact), len(j.warmExact))
	}
	for i, v := range out.exact {
		if v != j.warmExact[i] {
			return fmt.Errorf("exact count %d is %d, warm-up had %d", i, v, j.warmExact[i])
		}
	}
	return nil
}

// runJobs is the sequential round: each job timed alone, verified
// outside the timed region. Under a recorder it also samples allocation
// counters at the job boundaries.
func runJobs(e *env, r int, rec *recorder) roundStats {
	var rs roundStats
	ctx := context.Background()
	roundSpan := rec.begin("round", 0, 0)
	var ms0, ms1 runtime.MemStats
	for i, j := range e.jobs {
		id := r*len(e.jobs) + i + 1
		if rec != nil {
			runtime.ReadMemStats(&ms0)
		}
		sp := rec.begin(j.class, roundSpan, id)
		t0 := time.Now()
		out, err := j.run(ctx)
		dt := time.Since(t0)
		rec.end(sp)
		if rec != nil {
			runtime.ReadMemStats(&ms1)
			rec.count(sp, "mallocs", int64(ms1.Mallocs-ms0.Mallocs))
			rec.count(sp, "alloc_bytes", int64(ms1.TotalAlloc-ms0.TotalAlloc))
			rec.count(sp, "nominal", j.ref.nominal)
			for k, v := range out.counts {
				rec.count(sp, k, v)
			}
		}
		rs.jobs++
		rs.wall += dt.Seconds()
		if err == nil {
			err = j.verify(out, r == 0)
		}
		if err != nil {
			rs.failed++
			rs.lat = append(rs.lat, math.Inf(1))
			fmt.Fprintf(os.Stderr, "FAIL %s round %d job %d (%s): %v\n", e.who, r, i, j.label, err)
			continue
		}
		rs.nominal += j.ref.nominal
		rs.moved += out.moved
		if out.counted {
			rs.movedOn += j.ref.nominal
		}
		rs.lat = append(rs.lat, dt.Seconds()*1e3)
	}
	rec.end(roundSpan)
	return rs
}

func (e *env) runRound(r int, rec *recorder) roundStats {
	if e.round != nil {
		return e.round(r, rec)
	}
	return runJobs(e, r, rec)
}

// liveHeapMiB forces a collection and returns what survives it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
