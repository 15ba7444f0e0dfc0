package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	// serveRoundJobs is the length of one round of the job stream.
	serveRoundJobs = 400
	// Of every ten jobs of the stream three are distinct (cache misses).
	serveBlock, serveMissesPerBlock = 10, 3
	// serveCacheEntries keeps the warmed hot set resident for the whole
	// stream: the default 256-entry FIFO would drop it after 198 distinct
	// jobs and turn the hit path into the miss path.
	serveCacheEntries = 1 << 16
	// serveMissSeedBase starts the never-repeated partition seeds of the
	// distinct jobs, clear of the hot set's.
	serveMissSeedBase = 1 << 32
)

// served is one spec of the stream with what its answer must be.
type served struct {
	spec    serve.JobSpec
	want    [32]byte // SHA-256 of the offline twin's marshalled result
	nominal int64
}

// stream is the seed-derived job stream of serve-mix.
type stream struct {
	hot      []served // warmed in set-up: result-cache hits
	distinct []served // templates of the distinct jobs: a fresh seed makes each a miss
	// seed-drawn: the order hits and misses cycle through their sets, and
	// where in a block of ten the misses fall
	hitOrder, missOrder []int
	missAt              [serveBlock]bool
}

// newStream splits the hot set from its distinct templates and draws
// the stream's orders from the seed.
func newStream(hot []served, seed uint64) *stream {
	s := &stream{hot: hot}
	for _, sv := range hot {
		// LDG ignores its seed, so a distinct job's answer is its hot
		// twin's; only the cache keys differ.
		if sv.spec.Engine == serve.EngineSim && sv.spec.Partitioner == "ldg" {
			s.distinct = append(s.distinct, sv)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	s.hitOrder, s.missOrder = rng.Perm(len(s.hot)), rng.Perm(len(s.distinct))
	for _, p := range rng.Perm(serveBlock)[:serveMissesPerBlock] {
		s.missAt[p] = true
	}
	return s
}

// serveEnv is the running service and the stream drawn against it.
type serveEnv struct {
	*stream
	base      string
	mgr       *serve.Manager
	nproc     int
	roundJobs int
}

// job returns the i-th job of the stream. Hits and misses are
// stratified — exactly three misses in every ten jobs, every template
// once per cycle — so rounds and seeds differ in order, not in mix.
func (s *stream) job(i int) (sv served, miss bool) {
	block, pos := i/serveBlock, i%serveBlock
	before := 0 // misses earlier in this block
	for p := 0; p < pos; p++ {
		if s.missAt[p] {
			before++
		}
	}
	if s.missAt[pos] {
		n := block*serveMissesPerBlock + before
		sv = s.distinct[s.missOrder[n%len(s.missOrder)]]
		sv.spec.Seed = serveMissSeedBase + uint64(i)
		return sv, true
	}
	n := block*(serveBlock-serveMissesPerBlock) + pos - before
	return s.hot[s.hitOrder[n%len(s.hitOrder)]], false
}

// hotSpecs lists the hot set of one snapshot: every architecture and
// kernel of the simulator under two partitioners, the serial reference,
// and the actor cluster.
func hotSpecs(snapshot string, seed uint64) []serve.JobSpec {
	var out []serve.JobSpec
	kinds := []string{"bfs", "cc", "pagerank"}
	for _, arch := range core.Architectures() {
		for _, k := range kinds {
			for _, p := range []string{"ldg", "multilevel"} {
				out = append(out, serve.JobSpec{Snapshot: snapshot, Engine: serve.EngineSim, Kernel: k, PRIters: pageRankIterations,
					Arch: arch.String(), Partitioner: p, Seed: seed})
			}
		}
	}
	for _, k := range kinds {
		out = append(out, serve.JobSpec{Snapshot: snapshot, Engine: serve.EngineSerial, Kernel: k, PRIters: pageRankIterations, Seed: seed})
	}
	for _, k := range []string{"bfs", "pagerank"} {
		out = append(out, serve.JobSpec{Snapshot: snapshot, Engine: serve.EngineCluster, Kernel: k, PRIters: pageRankIterations,
			Partitioner: "ldg", Seed: seed})
	}
	return out
}

// offline computes what the service must answer for each spec — the
// marshalled result of ExecuteSpec on the same graph — sharing one
// assignment per partitioner the way the service's plan cache does.
func offline(g *graph.Graph, specs []serve.JobSpec) ([]served, error) {
	ctx := context.Background()
	nominal := make(map[string]int64)
	for _, s := range []kernelSpec{{"bfs", 0}, {kind: "cc"}, {kind: "pagerank"}} {
		res, err := kernels.RunSerialWith(g, s.kernel(), kernels.Options{Direction: kernels.DirectionPush})
		if err != nil {
			return nil, err
		}
		for _, e := range res.ActiveEdges {
			nominal[s.kind] += e
		}
	}
	plans := make(map[string]*partition.Assignment)
	out := make([]served, len(specs))
	for i, spec := range specs {
		if err := spec.Normalize(); err != nil {
			return nil, err
		}
		var assign *partition.Assignment
		if spec.Engine != serve.EngineSerial {
			if assign = plans[spec.Partitioner]; assign == nil {
				p, err := partition.ByName(spec.Partitioner, spec.Seed)
				if err != nil {
					return nil, err
				}
				if assign, err = p.Partition(g, spec.Partitions); err != nil {
					return nil, err
				}
				plans[spec.Partitioner] = assign
			}
		}
		res, err := serve.ExecuteSpec(ctx, g, spec, assign)
		if err != nil {
			return nil, fmt.Errorf("offline %s/%s/%s: %w", spec.Engine, spec.Arch, spec.Kernel, err)
		}
		b, err := serve.MarshalResult(res)
		if err != nil {
			return nil, err
		}
		out[i] = served{spec: specs[i], want: sha256.Sum256(b), nominal: nominal[spec.Kernel]}
	}
	return out, nil
}

func buildServeMix(cfg config, rec *recorder, refs *refCache) (_ *env, err error) {
	ljScale, wikiScale := 1.0, 0.5
	if cfg.tiny {
		ljScale, wikiScale = tinyScale, tinyScale
	}
	lj, err := generate(gen.ComLiveJournal, ljScale, cfg.seed, false, rec)
	if err != nil {
		return nil, err
	}
	wiki, err := generate(gen.WikiTalk, wikiScale, cfg.seed, false, rec)
	if err != nil {
		return nil, err
	}
	e := &env{}
	s := &serveEnv{nproc: cfg.nproc, roundJobs: serveRoundJobs}
	if cfg.tiny {
		s.roundJobs = 40
	}
	hotSeed := cfg.seed + 1 // Seed 0 would normalize to the default
	specs := append(hotSpecs("lj", hotSeed), hotSpecs("wiki", hotSeed)...)
	if refs.served == nil {
		t0 := time.Now()
		a, err := offline(lj, specs[:len(specs)/2])
		if err != nil {
			return nil, err
		}
		b, err := offline(wiki, specs[len(specs)/2:])
		if err != nil {
			return nil, err
		}
		refs.served = append(a, b...)
		e.verifyS = time.Since(t0).Seconds()
	}
	s.stream = newStream(refs.served, cfg.seed)

	dir, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	reg := serve.NewRegistry()
	s.mgr = serve.NewManager(reg, &metrics.Registry{}, serve.ManagerConfig{Executors: cfg.nproc, CacheEntries: serveCacheEntries})
	srv := &http.Server{Handler: serve.NewServer(s.mgr)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	e.close = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		s.mgr.Stop()
		if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections() // the clients' keep-alive readers
		}
		return errors.Join(err, os.RemoveAll(dir))
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	s.base = "http://" + ln.Addr().String()

	ctx := context.Background()
	sp := rec.begin("serve.Client.PutSnapshotGraph", 0, 0)
	_, err = serve.NewClient(s.base, "setup").PutSnapshotGraph(ctx, "lj", lj)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "wiki.gcsr2")
	if err = store.SaveGraphFile(path, wiki, oocSegmentBytes); err != nil {
		return nil, err
	}
	sp = rec.begin("serve.Registry.PutContainerFile", 0, 0)
	_, err = reg.PutContainerFile("wiki", path)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	e.info = append(e.info,
		fmt.Sprintf("lj %d vertices %d edges (uploaded), wiki %d vertices %d edges (container)", lj.NumVertices(), lj.NumEdges(), wiki.NumVertices(), wiki.NumEdges()),
		fmt.Sprintf("%d tenants and executors, hot set %d specs, %d distinct templates", cfg.nproc, len(s.hot), len(s.distinct)))

	e.round = func(r int, rec *recorder) roundStats { return s.round(e.who, r, rec) }
	e.layers = func(rec *recorder, m readings, ms measured) error {
		return s.layers(lj, rec, m, ms)
	}
	return e, nil
}

// round 0 submits every hot spec once, which warms the result and plan
// caches; round r ≥ 1 is the r-th stretch of the stream. nproc tenants
// draw from the shared stream, each submitting, waiting and fetching
// the result before it draws again: a closed loop.
func (s *serveEnv) round(who string, r int, rec *recorder) roundStats {
	lo, hi := (r-1)*s.roundJobs, r*s.roundJobs
	if r == 0 {
		lo, hi = 0, len(s.hot)
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		rs    roundStats
		wg    sync.WaitGroup
		ctx   = context.Background()
		round = rec.begin("round", 0, 0)
	)
	next.Store(int64(lo))
	t0 := time.Now()
	for t := 0; t < s.nproc; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := serve.NewClient(s.base, fmt.Sprintf("tenant-%d", t))
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				sv, miss := s.job(i)
				if r == 0 {
					sv, miss = s.hot[i], true
				}
				ms, err := s.serveOne(ctx, c, sv, miss, i+1, round, rec)
				mu.Lock()
				rs.jobs++
				if err != nil {
					rs.failed++
					rs.lat = append(rs.lat, math.Inf(1))
					fmt.Fprintf(os.Stderr, "FAIL %s round %d job %d (%s %s/%s/%s seed %d): %v\n", who, r, i,
						sv.spec.Snapshot, sv.spec.Engine, sv.spec.Arch, sv.spec.Kernel, sv.spec.Seed, err)
				} else {
					rs.nominal += sv.nominal
					rs.lat = append(rs.lat, ms)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	rs.wall = time.Since(t0).Seconds()
	rec.end(round)
	return rs
}

// serveOne is one tenant request: submit, wait, fetch the result bytes.
// The latency stops there; checking the bytes is the tenant's own time.
func (s *serveEnv) serveOne(ctx context.Context, c *serve.Client, sv served, miss bool, id, parent int, rec *recorder) (ms float64, err error) {
	class := "serve.hit"
	if miss {
		class = "serve.miss"
	}
	job := rec.begin(class, parent, id)
	t0 := time.Now()
	sp := rec.begin("serve.Client.Submit", job, id)
	info, err := c.Submit(ctx, sv.spec)
	rec.end(sp)
	if err != nil {
		rec.end(job)
		return 0, err // includes refusals: HTTP 429 and 503
	}
	sp = rec.begin("serve.Client.Wait", job, id)
	info, err = c.Wait(ctx, info.ID)
	rec.end(sp)
	if err != nil {
		rec.end(job)
		return 0, err
	}
	if info.State != serve.StateDone {
		rec.end(job)
		return 0, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	sp = rec.begin("serve.Client.ResultBytes", job, id)
	b, err := c.ResultBytes(ctx, info.ID)
	rec.end(sp)
	dt := time.Since(t0)
	rec.end(job)
	if err != nil {
		return 0, err
	}
	rec.count(job, "result_bytes", int64(len(b)))
	if info.CacheHit == miss {
		return 0, fmt.Errorf("job %s: cache hit is %v, stream says miss is %v", info.ID, info.CacheHit, miss)
	}
	if sha256.Sum256(b) != sv.want {
		return 0, fmt.Errorf("job %s: result bytes differ from the offline twin's", info.ID)
	}
	return dt.Seconds() * 1e3, nil
}

// layers turns the traced rounds' spans into the serve rows and probes
// the service's parts in isolation: the in-process hit path, and the
// offline twin of a miss (partition, execute, encode).
func (s *serveEnv) layers(lj *graph.Graph, rec *recorder, m readings, meas measured) error {
	ctx := context.Background()
	m.set("gen.generate_s", median(rec.ms("gen.Generate"))/1e3, "s")
	m.set("serve.put_snapshot_s", median(rec.ms("serve.Client.PutSnapshotGraph"))/1e3, "s")
	m.set("serve.put_container_s", median(rec.ms("serve.Registry.PutContainerFile"))/1e3, "s")
	hit, miss := rec.ms("serve.hit"), rec.ms("serve.miss")
	m.set("serve.hit.job_p50_ms", percentile(hit, 50), "ms")
	m.set("serve.miss.job_p50_ms", percentile(miss, 50), "ms")
	m.set("serve.miss.job_p95_ms", percentile(miss, 95), "ms")
	m.set("serve.job_p99_ms", percentile(meas.lat, 99), "ms")
	m.set("serve.http.submit_ms", median(rec.ms("serve.Client.Submit")), "ms")
	m.set("serve.http.wait_ms", median(rec.ms("serve.Client.Wait")), "ms")
	m.set("serve.http.result_ms", median(rec.ms("serve.Client.ResultBytes")), "ms")
	m.set("serve.result_kb", float64(rec.sum("serve.hit", "result_bytes")+rec.sum("serve.miss", "result_bytes"))/
		float64(len(hit)+len(miss))/1024, "KiB")
	var done int
	for _, n := range meas.done[:minRounds] {
		done += n
	}
	m.set("serve.retained_kb_per_job", (meas.heap[minRounds]-meas.heap[0])*1024/float64(done), "KiB")

	counters, err := serve.NewClient(s.base, "probe").Metrics(ctx)
	if err != nil {
		return err
	}
	ratio := func(hits, misses string) float64 {
		return float64(counters[hits]) / float64(counters[hits]+counters[misses])
	}
	m.set("serve.result_cache_hit_ratio", ratio(serve.CounterResultCacheHits, serve.CounterResultCacheMisses), "ratio")
	m.set("serve.plan_cache_hit_ratio", ratio(serve.CounterPlanCacheHits, serve.CounterPlanCacheMisses), "ratio")
	m.set("serve.rejected", float64(counters[serve.CounterRejectedQueueFull]+counters[serve.CounterRejectedQuota]), "count")

	var buf bytes.Buffer
	sp := rec.begin("gio.WriteBinary+ReadBinary", 0, 0)
	err = gio.WriteBinary(&buf, lj)
	if err == nil {
		_, err = gio.ReadBinary(&buf)
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	m.set("gio.upload_decode_s", median(rec.ms("gio.WriteBinary+ReadBinary"))/1e3, "s")

	const inproc = 2000
	sp = rec.begin("serve.Manager.Submit.hit", 0, 0)
	for i := 0; i < inproc; i++ {
		sv := s.hot[s.hitOrder[i%len(s.hitOrder)]]
		j, err := s.mgr.Submit("probe", sv.spec)
		if err == nil {
			_, err = s.mgr.Result(j.ID())
		}
		if err != nil {
			rec.end(sp)
			return err
		}
	}
	rec.end(sp)
	m.set("serve.inproc.submit_hit_us", median(rec.ms("serve.Manager.Submit.hit"))*1e3/inproc, "us")

	for _, sv := range s.distinct {
		if sv.spec.Snapshot != "lj" {
			continue
		}
		spec := sv.spec
		if err := spec.Normalize(); err != nil {
			return err
		}
		p, err := partition.ByName(spec.Partitioner, spec.Seed)
		if err != nil {
			return err
		}
		sp := rec.begin("partition.Partitioner.Partition", 0, 0)
		assign, err := p.Partition(lj, spec.Partitions)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("serve.ExecuteSpec", 0, 0)
		res, err := serve.ExecuteSpec(ctx, lj, spec, assign)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("serve.MarshalResult", 0, 0)
		_, err = serve.MarshalResult(res)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	plan, run, enc := median(rec.ms("partition.Partitioner.Partition")), median(rec.ms("serve.ExecuteSpec")), median(rec.ms("serve.MarshalResult"))
	m.set("serve.exec.plan_ms", plan, "ms")
	m.set("serve.exec.run_ms", run, "ms")
	m.set("serve.exec.encode_ms", enc, "ms")
	// What a miss waits beyond its own work: queueing, HTTP, and the
	// client's 10 ms poll quantum.
	m.set("serve.queue_wait_ms", percentile(miss, 50)-plan-run-enc, "ms")
	return nil
}
