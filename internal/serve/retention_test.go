package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// The retention contract: everything the service keeps has one owner and
// a bound that does not depend on how many jobs it has served. Results are
// sized through a fake exec; nothing here sleeps.

// checkCache holds a cache to its invariants: the recency list and the
// map are the same entries, the byte count is the sum of their keys and
// values, and neither bound is exceeded — except the byte budget by an
// entry admitted alone.
func checkCache(t testing.TB, c *ResultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if c.items[e.key] != el {
			t.Fatalf("entry %q: list and map disagree", e.key)
		}
		sum += e.size()
	}
	n := c.lru.Len()
	if n != len(c.items) || sum != c.bytes {
		t.Fatalf("list holds %d entries %d bytes; map %d, accounted %d", n, sum, len(c.items), c.bytes)
	}
	if n > c.max || (c.bytes > c.budget && n != 1) {
		t.Fatalf("%d entries %d bytes exceed max %d budget %d", n, c.bytes, c.max, c.budget)
	}
}

// Len and Bytes read what a cache holds; only tests ask.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// kv is a cache entry of exactly size bytes, key included.
func kv(i, size int) (string, []byte) {
	key := fmt.Sprintf("k%07d", i)
	return key, make([]byte, size-len(key))
}

func TestResultCacheAccounting(t *testing.T) {
	c := newResultCache(8, 1000)
	put := func(i, size, wantEvicted int, wantBytes int64) {
		t.Helper()
		k, b := kv(i, size)
		if n, nb := c.Put(k, b); n != wantEvicted || nb != wantBytes {
			t.Fatalf("Put(%s, %d bytes) evicted %d results %d bytes, want %d and %d", k, size, n, nb, wantEvicted, wantBytes)
		}
		checkCache(t, c)
	}
	put(1, 400, 0, 0)
	put(2, 400, 0, 0)
	put(2, 400, 0, 0) // the same key again: kept, nothing moves but its recency
	put(3, 200, 0, 0) // exactly the budget
	if c.Bytes() != 1000 || c.Len() != 3 {
		t.Fatalf("holding %d bytes in %d entries, want 1000 in 3", c.Bytes(), c.Len())
	}
	k1, _ := kv(1, 400)
	if _, ok := c.Get(k1); !ok { // 1 is now the most recent; 2 the least
		t.Fatal("entry 1 missing")
	}
	put(4, 300, 1, 400) // evicts 2 alone
	k2, _ := kv(2, 400)
	if _, ok := c.Get(k2); ok {
		t.Fatal("entry 2 survived; the re-referenced 1 should have outlived it")
	}
	put(5, 5000, 3, 900) // larger than the whole budget: admitted alone
	if c.Len() != 1 || c.Bytes() != 5000 {
		t.Fatalf("oversized entry shares the cache: %d entries %d bytes", c.Len(), c.Bytes())
	}
	put(6, 10, 1, 5000) // and is the first to go
	for i := 7; i < 14; i++ {
		put(i, 10, 0, 0)
	}
	for i := 14; i < 20; i++ {
		put(i, 10, 1, 10) // eight held: the entry bound binds
	}
	if c.Len() != 8 {
		t.Fatalf("%d entries, want the entry bound 8", c.Len())
	}
}

// TestHotSetSurvivesOneHitStream: a hot set that keeps being asked for
// outlives ten budgets' worth of results nobody asks for twice — what
// FIFO could not promise — and a result is evicted only after newer
// results worth the budget less what was re-referenced have been stored.
func TestHotSetSurvivesOneHitStream(t *testing.T) {
	const (
		size   = 4096
		budget = 256 * size
		hot    = 64
		gap    = 32 // one-hit inserts between two passes over the hot set
	)
	c := newResultCache(1<<20, budget)
	touchHot := func() {
		t.Helper()
		for i := 0; i < hot; i++ {
			k, _ := kv(i, size)
			if _, ok := c.Get(k); !ok {
				t.Fatalf("hot entry %d was evicted with %d bytes held", i, c.Bytes())
			}
		}
	}
	for i := 0; i < hot; i++ {
		c.Put(kv(i, size))
	}
	next := hot
	var evicted int
	for ; next < hot+10*budget/size; next++ {
		if next%gap == 0 {
			touchHot()
		}
		n, _ := c.Put(kv(next, size))
		evicted += n
	}
	touchHot()
	checkCache(t, c)
	if want := next - budget/size; evicted != want {
		t.Fatalf("evicted %d one-hit results, want %d", evicted, want)
	}

	// The newest result survives budget − hot bytes − its own size of
	// newer results, the hot set re-referenced throughout, and not the
	// result after that.
	newest, b := kv(next, size)
	c.Put(newest, b)
	for i := 1; i <= (budget-hot*size-size)/size; i++ {
		if i%gap == 0 {
			touchHot()
		}
		c.Put(kv(next+i, size))
	}
	touchHot()
	if _, ok := c.Get(newest); !ok {
		t.Fatal("a result was evicted before newer results worth the rest of the budget were stored")
	}
	// That Get re-referenced it; the guarantee then starts over.
	for i := 0; i < (budget-hot*size-size)/size; i++ {
		c.Put(kv(next+1000+i, size))
	}
	if _, ok := c.Get(newest); !ok {
		t.Fatal("a re-referenced result did not get its bound afresh")
	}
	checkCache(t, c)
}

// sizedExec is a fake executor whose results carry floats values (8 bytes
// of result, 32/3 on the wire, each). It resolves a hash plan under the
// spec's seed the way runSpec does, so distinct jobs fill the plan cache.
func sizedExec(m *Manager, floats int) func(context.Context, *Snapshot, JobSpec) (*core.Result, error) {
	return func(_ context.Context, snap *Snapshot, spec JobSpec) (*core.Result, error) {
		if _, err := snap.plan(partition.Hash{}, planKey{"hash", spec.Seed, 4}, &m.c); err != nil {
			return nil, err
		}
		res := fakeResult(spec)
		res.Values = make([]float64, floats)
		res.Values[0] = float64(spec.Seed)
		return res, nil
	}
}

// submitDone runs one job of a fake exec to its end. It waits on Done
// alone: waitDone's time.After would hold a timer per job for 30 s (this
// module's go line predates collectable timers), a leak of the test's own
// in the very readings the heap test takes.
func submitDone(t testing.TB, m *Manager, spec JobSpec) *Job {
	t.Helper()
	job, err := m.Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	return job
}

func counter(m *Manager, name string) int64 { return m.Metrics().Counter(name).Value() }

// TestCountersResolveTheirNames pins newCounters' positional order to the
// struct's: every handle carries the name its field stands for.
func TestCountersResolveTheirNames(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{}, nil)
	for _, c := range []struct {
		handle *metrics.Counter
		name   string
	}{
		{m.c.submitted, CounterJobsSubmitted}, {m.c.completed, CounterJobsCompleted},
		{m.c.failed, CounterJobsFailed}, {m.c.cancelled, CounterJobsCancelled},
		{m.c.rejectedQueueFull, CounterRejectedQueueFull}, {m.c.rejectedQuota, CounterRejectedQuota},
		{m.c.resultHits, CounterResultCacheHits}, {m.c.resultMisses, CounterResultCacheMisses},
		{m.c.resultsEvicted, CounterResultsEvicted}, {m.c.resultBytesEvicted, CounterResultBytesEvicted},
		{m.c.planHits, CounterPlanCacheHits}, {m.c.planMisses, CounterPlanCacheMisses},
		{m.c.plansEvicted, CounterPlansEvicted}, {m.c.waitsParked, CounterWaitsParked},
		{m.c.waitsExpired, CounterWaitsExpired}, {m.c.jobsExpired, CounterJobsExpired},
		{m.c.lookupsGone, CounterLookupsGone},
	} {
		if c.handle.Name() != c.name || c.handle != m.Metrics().Counter(c.name) {
			t.Errorf("handle for %s is the counter %s", c.name, c.handle.Name())
		}
	}
}

// TestNothingGrowsWithJobsServed runs 20,000 jobs — three in ten distinct,
// the rest hits on a small hot set, serve-mix's shape — and holds the job
// table, the result cache and the snapshot's plans to their constants, the
// forgetting to its counters, and the teardown to its baselines.
func TestNothingGrowsWithJobsServed(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	m, snap := newTestManager(t, ManagerConfig{Executors: 2, QueueCap: 4, CacheEntries: 1 << 16}, nil)
	m.exec = sizedExec(m, 6144) // 64 KiB on the wire: the byte budget binds, near 500 results
	refs := snap.Refs()

	const jobs, hot = 20000, 8
	var distinct int64
	for i := 0; i < jobs; i++ {
		spec := JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(1 + i%hot)}
		if i >= hot && i%10 < 3 {
			spec.Seed = uint64(1000 + i)
			distinct++
		}
		job := submitDone(t, m, spec)
		if hit := m.info(job).CacheHit; hit != (i >= hot && i%10 >= 3) {
			t.Fatalf("job %d, seed %d: cache hit is %v: the hot set must stay and nothing else repeat", i, spec.Seed, hit)
		}
		if _, err := m.Result(job.ID()); err != nil {
			t.Fatalf("job %d: result straight after completion: %v", i, err)
		}
	}

	m.mu.Lock()
	held := len(m.jobs)
	m.mu.Unlock()
	if held != finishedJobsKept {
		t.Errorf("job table holds %d jobs, want exactly the ring's %d with nothing queued or running", held, finishedJobsKept)
	}
	if got := counter(m, CounterJobsExpired); got != jobs-finishedJobsKept {
		t.Errorf("%s = %d, want %d", CounterJobsExpired, got, jobs-finishedJobsKept)
	}
	checkCache(t, m.cache)
	if b := m.cache.Bytes(); b > resultBudget || b < resultBudget-(66<<10) {
		t.Errorf("cache holds %d bytes, want the budget %d filled to within one result", b, resultBudget)
	}
	executed := distinct + hot
	if got, want := counter(m, CounterResultsEvicted), executed-int64(m.cache.Len()); got != want {
		t.Errorf("%s = %d, want executed %d − held %d", CounterResultsEvicted, got, executed, m.cache.Len())
	}
	if got := counter(m, CounterResultBytesEvicted); got < 65536*counter(m, CounterResultsEvicted) {
		t.Errorf("%s = %d for %d results of over 64 KiB", CounterResultBytesEvicted, got, counter(m, CounterResultsEvicted))
	}
	snap.mu.Lock()
	plans := len(snap.plans)
	snap.mu.Unlock()
	if plans != plansKept {
		t.Errorf("snapshot keeps %d plans, want %d", plans, plansKept)
	}
	if got, want := counter(m, CounterPlansEvicted), executed-plansKept; got != want {
		t.Errorf("%s = %d, want %d", CounterPlansEvicted, got, want)
	}

	// The oldest job is gone, the newest still answers; neither is unknown.
	if _, err := m.Info(jobID(1)); !errors.Is(err, ErrJobExpired) {
		t.Errorf("Info of the first job: %v, want ErrJobExpired", err)
	}
	if _, err := m.Info(jobID(jobs)); err != nil {
		t.Errorf("Info of the last job: %v", err)
	}
	if _, err := m.Info(jobID(jobs + 1)); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Info of an id not issued yet: %v, want ErrUnknownJob", err)
	}

	m.Stop()
	if got := snap.Refs(); got != refs {
		t.Errorf("snapshot refs after Stop = %d, want %d", got, refs)
	}
	waitForGoroutines(t, goroutines, 0)
}

// TestHitStormExpiresNoResult: a cache hit stores nothing, so no number of
// them evicts anything. 100,000 hit submissions push every earlier job's
// record out of the ring — those ids answer 410 — yet every executed
// result is still there for whoever asks again, and a job still running
// was never in the ring to be pushed out of.
func TestHitStormExpiresNoResult(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{Executors: 2, QueueCap: 4}, nil)
	gate := make(chan struct{})
	sized := sizedExec(m, 1024)
	m.exec = func(ctx context.Context, snap *Snapshot, spec JobSpec) (*core.Result, error) {
		if spec.Kernel == "bfs" {
			<-gate
		}
		return sized(ctx, snap, spec)
	}
	const executed = 50
	want := make([][]byte, executed)
	for i := range want {
		job := submitDone(t, m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(1 + i)})
		b, err := m.Result(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	running, err := m.Submit("t", JobSpec{Snapshot: "g", Kernel: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID())

	for i := 0; i < 100000; i++ {
		if _, err := m.Submit("storm", JobSpec{Snapshot: "g", Kernel: "cc", Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n, gone := counter(m, CounterResultsEvicted), counter(m, CounterLookupsGone); n != 0 || gone != 0 {
		t.Fatalf("the storm evicted %d results and %d lookups were answered 410", n, gone)
	}
	if _, err := m.Result(jobID(2)); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("Result of a job the storm pushed out of the ring: %v, want ErrJobExpired", err)
	}
	if counter(m, CounterLookupsGone) != 1 {
		t.Fatalf("%s = %d after one expired lookup", CounterLookupsGone, counter(m, CounterLookupsGone))
	}
	for i := range want {
		job, err := m.Submit("t", JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(1 + i)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Result(job.ID())
		if err != nil || !m.info(job).CacheHit || !bytes.Equal(b, want[i]) {
			t.Fatalf("executed result %d after the storm: hit %v, err %v, same bytes %v", i, m.info(job).CacheHit, err, bytes.Equal(b, want[i]))
		}
	}
	if info, err := m.Info(running.ID()); err != nil || info.State != StateRunning {
		t.Fatalf("the running job after the storm: %+v, %v", info, err)
	}
	close(gate)
	waitDone(t, running)
}

// TestExpiredVersusNeverIssued pins 410 against 404 on every job route,
// and that the client turns each status back into the sentinel it stands
// for, with the server's text.
func TestExpiredVersusNeverIssued(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	old := r.submit(t, 801)
	waitRunning(t, r.m, old.ID())
	ctx := context.Background()
	if _, err := r.c.ResultBytes(ctx, old.ID()); !errors.Is(err, ErrNotDone) || !strings.Contains(err.Error(), "HTTP 409") {
		t.Errorf("result of a running job: %v, want ErrNotDone with the status in its text", err)
	}
	close(r.gate)
	waitDone(t, old)
	for i := 0; i < finishedJobsKept; i++ { // hits: each one more finished job
		r.submit(t, 801)
	}

	do := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, r.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	for _, c := range []struct {
		id   string
		want int
	}{
		{old.ID(), http.StatusGone},
		{jobID(2), http.StatusOK},                          // the oldest the ring still holds
		{jobID(finishedJobsKept + 2), http.StatusNotFound}, // the next id, not issued yet
		{"j99999999", http.StatusNotFound},
		{"j1", http.StatusNotFound}, // names job 1, but is not an id the manager writes
		{"j+0000001", http.StatusNotFound},
		{"00000001", http.StatusNotFound},
		{"missing", http.StatusNotFound},
	} {
		for _, route := range []struct{ method, suffix string }{
			{http.MethodGet, ""}, {http.MethodGet, "?wait=1s"}, {http.MethodGet, "/result"}, {http.MethodDelete, ""},
		} {
			if got := do(route.method, "/v1/jobs/"+c.id+route.suffix); got != c.want {
				t.Errorf("%s /v1/jobs/%s%s: %d, want %d", route.method, c.id, route.suffix, got, c.want)
			}
		}
	}
	if got := counter(r.m, CounterLookupsGone); got != 4 {
		t.Errorf("%s = %d, want 4: the expired id on four routes", CounterLookupsGone, got)
	}

	for _, c := range []struct {
		what string
		err  func() error
		want error
	}{
		{"status of an expired job", func() error { _, err := r.c.Status(ctx, old.ID()); return err }, ErrJobExpired},
		{"wait on an expired job", func() error { _, err := r.c.Wait(ctx, old.ID()); return err }, ErrJobExpired},
		{"result of an expired job", func() error { _, err := r.c.Result(ctx, old.ID()); return err }, ErrJobExpired},
		{"cancel of an expired job", func() error { _, err := r.c.Cancel(ctx, old.ID()); return err }, ErrJobExpired},
		{"status of a job never issued", func() error { _, err := r.c.Status(ctx, "j99999999"); return err }, ErrUnknownJob},
		{"result of a job never issued", func() error { _, err := r.c.ResultBytes(ctx, "missing"); return err }, ErrUnknownJob},
		{"submit to a snapshot never put", func() error { _, err := r.c.Submit(ctx, JobSpec{Snapshot: "nope"}); return err }, ErrUnknownSnapshot},
	} {
		err := c.err()
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("%s: %v, want %v across HTTP", c.what, err, c.want)
		}
		for _, other := range []error{ErrJobExpired, ErrUnknownJob, ErrUnknownSnapshot, ErrNotDone, ErrStopped} {
			if other != c.want && errors.Is(err, other) {
				t.Errorf("%s: %v is also %v", c.what, err, other)
			}
		}
	}
	// A refusal with no one sentinel behind its status stays a plain error.
	if _, err := r.c.Submit(ctx, JobSpec{Snapshot: "g", Kernel: "bogus"}); err == nil || errors.Unwrap(err) != nil {
		t.Errorf("bad spec: %v, want an error that wraps nothing", err)
	}
	r.close(t)
}

// TestWaiterOutlivesItsJobRecord: a waiter holds its job, not the job's
// id, so one whose job finishes and is pushed out of the ring before the
// waiter runs again still gets the terminal answer. The ring is shrunk to
// one slot so a single hit pushes the job out; which of the waiter and the
// hit gets the lock first is the scheduler's choice, so the scene is
// played many times and must end the same way every time.
func TestWaiterOutlivesItsJobRecord(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	r.m.finished = make([]*Job, 1)
	r.m.exec = func(_ context.Context, _ *Snapshot, spec JobSpec) (*core.Result, error) {
		if spec.Seed != 900 {
			<-r.gate
		}
		return fakeResult(spec), nil
	}
	submitDone(t, r.m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: 900}) // what the hits hit
	for i := 0; i < 40; i++ {
		r.gate = make(chan struct{})
		job := r.submit(t, uint64(901+i))
		parked, _ := waitCounters(r.m)
		ans := r.goWait(context.Background(), job.ID())
		waitParked(t, r.m, parked+1)
		close(r.gate)
		waitDone(t, job)
		r.submit(t, 900)
		if _, err := r.m.Info(job.ID()); !errors.Is(err, ErrJobExpired) {
			t.Fatalf("round %d: Info after the job left the ring: %v, want ErrJobExpired", i, err)
		}
		if a := recvAnswer(t, ans); a.err != nil || a.info.ID != job.ID() || a.info.State != StateDone {
			t.Fatalf("round %d: waiter got %+v, %v; want the job done", i, a.info, a.err)
		}
	}
	r.close(t)
}

// TestSnapshotSwapAgesOutOldResults: results are keyed by digest, so a
// swapped-out snapshot's results are simply never asked for again and
// leave from the cold end as the new snapshot's arrive.
func TestSnapshotSwapAgesOutOldResults(t *testing.T) {
	m, old := newTestManager(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	m.exec = sizedExec(m, 1024) // ~11 KiB each
	m.cache = newResultCache(0, 256<<10)
	for i := 0; i < 10; i++ {
		submitDone(t, m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(1 + i)})
	}
	held := func(digest string) (n int) {
		m.cache.mu.Lock()
		defer m.cache.mu.Unlock()
		for k := range m.cache.items {
			if strings.HasPrefix(k, digest) {
				n++
			}
		}
		return n
	}
	if held(old.Digest()) != 10 {
		t.Fatalf("cache holds %d results of the first snapshot, want 10", held(old.Digest()))
	}
	info, err := m.Registry().Put("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if job := submitDone(t, m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: 1}); m.info(job).CacheHit {
		t.Fatal("a spec on the new snapshot hit the old snapshot's result")
	}
	for i := 0; i < 30; i++ {
		submitDone(t, m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(100 + i)})
	}
	checkCache(t, m.cache)
	if n := held(old.Digest()); n != 0 {
		t.Errorf("%d results of the swapped-out snapshot are still held", n)
	}
	if held(info.Digest) != m.cache.Len() || m.cache.Len() == 0 {
		t.Errorf("cache holds %d entries, %d of the live snapshot", m.cache.Len(), held(info.Digest))
	}
	if old.Refs() != 0 {
		t.Errorf("swapped-out snapshot refs = %d, want 0", old.Refs())
	}
}

// TestOversizedResultServedAlone runs a real spec over HTTP against a
// cache whose whole budget is smaller than one result. The result is
// admitted alone: the served bytes are the offline twin's, a resubmission
// is a hit with the same bytes, and the next result evicts it — after
// which the first job's status still answers and its result is 410.
func TestOversizedResultServedAlone(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	m.cache = newResultCache(0, 64)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	c := NewClient(ts.URL, "t")
	ctx := context.Background()

	spec := JobSpec{Snapshot: "g", Kernel: "pagerank", Partitions: 4, Partitioner: "ldg"}
	offline := spec
	if err := offline.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSpec(ctx, testGraph(t, 7), offline, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(spec JobSpec) (JobInfo, []byte) {
		t.Helper()
		info, err := c.Submit(ctx, spec)
		if err == nil {
			info, err = c.Wait(ctx, info.ID)
		}
		if err != nil || info.State != StateDone {
			t.Fatalf("job %+v: %v", info, err)
		}
		b, err := c.ResultBytes(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		return info, b
	}
	first, got := serve(spec)
	if first.CacheHit || !bytes.Equal(got, want) {
		t.Fatalf("served %d bytes (cache hit %v) differ from the offline twin's %d", len(got), first.CacheHit, len(want))
	}
	if m.cache.Len() != 1 || m.cache.Bytes() <= 64 {
		t.Fatalf("cache holds %d entries %d bytes, want the one oversized result", m.cache.Len(), m.cache.Bytes())
	}
	if again, got := serve(spec); !again.CacheHit || !bytes.Equal(got, want) {
		t.Fatalf("resubmission: cache hit %v, same bytes %v", again.CacheHit, bytes.Equal(got, want))
	}

	spec.Kernel = "cc"
	serve(spec)
	checkCache(t, m.cache)
	wantBytes := int64(len(offline.cacheKey(first.Digest)) + len(want))
	if n, nb := counter(m, CounterResultsEvicted), counter(m, CounterResultBytesEvicted); n != 1 || nb != wantBytes {
		t.Errorf("evicted %d results %d bytes, want the first result: 1 and %d", n, nb, wantBytes)
	}
	if info, err := c.Status(ctx, first.ID); err != nil || info != first {
		t.Errorf("status of a job whose result was evicted: %+v, %v; want %+v", info, err, first)
	}
	_, err = c.ResultBytes(ctx, first.ID)
	if !errors.Is(err, ErrJobExpired) || !strings.Contains(err.Error(), "evicted, resubmit (HTTP 410)") {
		t.Errorf("result of a job whose bytes were evicted: %v, want ErrJobExpired saying so", err)
	}
	if got := counter(m, CounterLookupsGone); got != 1 {
		t.Errorf("%s = %d, want 1", CounterLookupsGone, got)
	}
}

// TestOversizedUploadIs413: a body past the upload bound is refused as too
// large, not as malformed.
func TestOversizedUploadIs413(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{}, nil)
	s := NewServer(m)
	s.maxSnapshot = 16
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, c := range []struct {
		body string
		want int
	}{
		{strings.Repeat("x", 17), http.StatusRequestEntityTooLarge},
		{strings.Repeat("x", 16), http.StatusBadRequest}, // fits, and is no graph
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/snapshots/big", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("PUT of %d bytes under a 16-byte bound: %d, want %d", len(c.body), resp.StatusCode, c.want)
		}
	}
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second empties what sync.Pools kept through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServiceHeapIsBounded is the claim itself: what the service holds
// after 10,000 jobs is what it held after 2,000. Every job is distinct and
// carries a 64 KiB result, and the entry bound is out of the way as in
// serve-mix, so all three owners sit at their bounds; keeping every result,
// as the job table used to, would put 500 MiB between the two readings.
func TestServiceHeapIsBounded(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{Executors: 2, QueueCap: 4, CacheEntries: 1 << 16}, nil)
	m.exec = sizedExec(m, 6144)
	run := func(from, to int) int64 {
		var wg sync.WaitGroup
		for tenant := 0; tenant < 2; tenant++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := from + tenant; i < to; i += 2 {
					job, err := m.Submit("t", JobSpec{Snapshot: "g", Kernel: "cc", Seed: uint64(1 + i)})
					if err != nil {
						t.Error(err)
						return
					}
					<-job.Done()
				}
			}()
		}
		wg.Wait()
		return liveHeap()
	}
	at2k := run(0, 2000)
	at10k := run(2000, 10000)
	if d := at10k - at2k; d >= 1<<20 || d <= -(1<<20) {
		t.Fatalf("live heap after 2,000 jobs %d bytes, after 10,000 %d: moved by %d, want under 1 MiB", at2k, at10k, d)
	}
}
