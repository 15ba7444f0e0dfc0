package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// waitRig is a manager whose jobs block on gate, behind a real HTTP
// server: the wait contract is about what a request does while its job
// is not finished, so every test needs a job that stays unfinished until
// the test says otherwise. Nothing here sleeps to let something happen;
// parks are observed through CounterWaitsParked.
type waitRig struct {
	m    *Manager
	ts   *httptest.Server
	c    *Client
	gate chan struct{}
	base int
}

// newWaitRig wraps the service's handler with wrap (nil for none).
func newWaitRig(t *testing.T, cfg ManagerConfig, wrap func(*waitRig, http.Handler) http.Handler) *waitRig {
	t.Helper()
	r := &waitRig{base: runtime.NumGoroutine(), gate: make(chan struct{})}
	r.m, _ = newTestManager(t, cfg, blockingExec(r.gate))
	var h http.Handler = NewServer(r.m)
	if wrap != nil {
		h = wrap(r, h)
	}
	r.ts = httptest.NewServer(h)
	r.c = NewClient(r.ts.URL, "t")
	return r
}

// close tears down in ndpserve's order and holds the rig to its
// goroutine baseline: no waiter, handler or executor outlives it.
func (r *waitRig) close(t *testing.T) {
	t.Helper()
	r.m.Stop()
	r.ts.Close()
	waitForGoroutines(t, r.base, 0)
}

func (r *waitRig) submit(t *testing.T, seed uint64) *Job {
	t.Helper()
	job, err := r.m.Submit("t", JobSpec{Snapshot: "g", Kernel: "cc", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// get issues a raw GET and returns the status code and trimmed body.
func (r *waitRig) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(r.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(body))
}

type waitAnswer struct {
	info JobInfo
	err  error
}

// goWait starts Client.Wait on its own goroutine; the answer arrives on
// the returned channel.
func (r *waitRig) goWait(ctx context.Context, id string) <-chan waitAnswer {
	out := make(chan waitAnswer, 1)
	go func() {
		info, err := r.c.Wait(ctx, id)
		out <- waitAnswer{info, err}
	}()
	return out
}

func recvAnswer(t *testing.T, ch <-chan waitAnswer) waitAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(30 * time.Second):
		t.Fatal("waiter was not released")
		return waitAnswer{}
	}
}

// waitParked blocks until n status requests have parked.
func waitParked(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for m.Metrics().Counter(CounterWaitsParked).Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waits parked, want %d", m.Metrics().Counter(CounterWaitsParked).Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitCounters(m *Manager) (parked, expired int64) {
	return m.Metrics().Counter(CounterWaitsParked).Value(), m.Metrics().Counter(CounterWaitsExpired).Value()
}

// TestWaitReleasedByCompletion: a waiter on a running job is answered
// when the job finishes, with what Info reports; a wait on the finished
// job, and on a cache hit, is answered at once without parking.
func TestWaitReleasedByCompletion(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	job := r.submit(t, 701)
	ans := r.goWait(context.Background(), job.ID())
	waitParked(t, r.m, 1)
	close(r.gate)
	a := recvAnswer(t, ans)
	want, err := r.m.Info(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if a.err != nil || a.info != want || a.info.State != StateDone || a.info.CacheHit {
		t.Fatalf("released waiter got %+v, %v; Info reports %+v", a.info, a.err, want)
	}

	twin := r.submit(t, 701) // a result-cache hit: done before Submit returns
	for _, id := range []string{job.ID(), twin.ID()} {
		a = recvAnswer(t, r.goWait(context.Background(), id))
		want, err = r.m.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if a.err != nil || a.info != want || a.info.CacheHit != (id == twin.ID()) {
			t.Errorf("wait on finished %s got %+v, %v; Info reports %+v", id, a.info, a.err, want)
		}
	}
	if parked, expired := waitCounters(r.m); parked != 1 || expired != 0 {
		t.Errorf("parked %d expired %d, want 1 and 0: a finished job parks nobody", parked, expired)
	}
	r.close(t)
}

// TestWaitBoundExpires: the bound running out is an ordinary answer, 200
// with the job's non-terminal state, and Client.Wait — which asks for
// MaxWait every time — asks again until the state is terminal.
func TestWaitBoundExpires(t *testing.T) {
	var asked atomic.Int32
	// The wrapper turns the client's 30 s into 1 ms so the bound can run
	// out inside a test, and opens the gate at the third request: at
	// least two answers are expiries.
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, func(r *waitRig, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.RawQuery == "wait="+MaxWait.String() {
				req.URL.RawQuery = "wait=1ms"
				if asked.Add(1) == 3 {
					close(r.gate)
				}
			}
			h.ServeHTTP(w, req)
		})
	})
	job := r.submit(t, 702)
	waitRunning(t, r.m, job.ID())

	status, body := r.get(t, "/v1/jobs/"+job.ID()+"?wait=2ms")
	if status != http.StatusOK || !strings.Contains(body, `"state":"running"`) {
		t.Fatalf("expired wait answered %d %s, want 200 and state running", status, body)
	}
	if parked, expired := waitCounters(r.m); parked != 1 || expired != 1 {
		t.Fatalf("parked %d expired %d after one expired wait, want 1 and 1", parked, expired)
	}

	a := recvAnswer(t, r.goWait(context.Background(), job.ID()))
	if a.err != nil || a.info.State != StateDone {
		t.Fatalf("Client.Wait across expiries got %+v, %v", a.info, a.err)
	}
	if n := asked.Load(); n < 3 {
		t.Errorf("Client.Wait asked %d times, want at least 3", n)
	}
	if _, expired := waitCounters(r.m); expired < 3 {
		t.Errorf("expired = %d, want at least 3 (one raw, two through Client.Wait)", expired)
	}
	r.close(t)
}

// TestWaitReleasedByClientContext: a client that gives up mid-park gets
// its context's error, and the parked handler goes with the connection.
func TestWaitReleasedByClientContext(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	job := r.submit(t, 703)
	waitRunning(t, r.m, job.ID())
	before := runtime.NumGoroutine() // server and executor up, no connection yet

	ctx, cancel := context.WithCancel(context.Background())
	ans := r.goWait(ctx, job.ID())
	waitParked(t, r.m, 1)
	cancel()
	if a := recvAnswer(t, ans); a.err != context.Canceled {
		t.Fatalf("cancelled Client.Wait returned %+v, %v; want context.Canceled", a.info, a.err)
	}
	waitForGoroutines(t, before, 0)
	if info, err := r.m.Info(job.ID()); err != nil || info.State != StateRunning {
		t.Fatalf("job after its waiter left: %+v, %v; want still running", info, err)
	}
	close(r.gate)
	waitDone(t, job)
	r.close(t)
}

// TestWaitReleasedByCancel: cancelling a queued job and cancelling a
// running one each wake that job's waiters with the cancelled state.
func TestWaitReleasedByCancel(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	running := r.submit(t, 704)
	waitRunning(t, r.m, running.ID())
	queued := r.submit(t, 705)
	onRunning := r.goWait(context.Background(), running.ID())
	onQueued := r.goWait(context.Background(), queued.ID())
	waitParked(t, r.m, 2)

	for _, c := range []struct {
		name string
		job  *Job
		ans  <-chan waitAnswer
	}{{"queued", queued, onQueued}, {"running", running, onRunning}} {
		if err := r.m.Cancel(c.job.ID()); err != nil {
			t.Fatal(err)
		}
		if a := recvAnswer(t, c.ans); a.err != nil || a.info.State != StateCancelled {
			t.Errorf("waiter on the cancelled %s job got %+v, %v", c.name, a.info, a.err)
		}
	}
	r.close(t)
}

// TestWaitManyWaitersOneJob: one completion releases every waiter.
func TestWaitManyWaitersOneJob(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	job := r.submit(t, 706)
	const n = 8
	var answers [n]<-chan waitAnswer
	for i := range answers {
		answers[i] = r.goWait(context.Background(), job.ID())
	}
	waitParked(t, r.m, n)
	close(r.gate)
	for i, ch := range answers {
		if a := recvAnswer(t, ch); a.err != nil || a.info.State != StateDone {
			t.Errorf("waiter %d got %+v, %v", i, a.info, a.err)
		}
	}
	r.close(t)
}

// TestWaitReleasedByStop: a stopping manager refuses its parked waiters
// at once instead of holding them until the executors have noticed. The
// job here is deaf to cancellation, so Stop itself blocks on it and only
// the stop signal can have released the waiter.
func TestWaitReleasedByStop(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	r.m.exec = marshalled(func(_ context.Context, _ *Snapshot, spec JobSpec) (*core.Result, error) {
		<-r.gate
		return fakeResult(spec), nil
	})
	job := r.submit(t, 707)
	waitRunning(t, r.m, job.ID())
	ans := r.goWait(context.Background(), job.ID())
	waitParked(t, r.m, 1)
	stopped := make(chan struct{})
	go func() {
		r.m.Stop()
		close(stopped)
	}()
	if a := recvAnswer(t, ans); !errors.Is(a.err, ErrStopped) || !strings.Contains(a.err.Error(), "HTTP 503") {
		t.Errorf("waiter on a stopping manager got %+v, %v; want ErrStopped over HTTP 503", a.info, a.err)
	}
	if _, expired := waitCounters(r.m); expired != 0 {
		t.Errorf("expired = %d: the waiter sat out its bound", expired)
	}
	close(r.gate)
	<-stopped
	// The job is terminal now, and a wait on it is answered as before Stop.
	if a := recvAnswer(t, r.goWait(context.Background(), job.ID())); a.err != nil || a.info.State != StateDone {
		t.Errorf("wait on a finished job after Stop got %+v, %v", a.info, a.err)
	}
	r.close(t)
}

// assertStopAnswer accepts the two answers a waiter may get from a
// manager that stopped under it.
func assertStopAnswer(t *testing.T, a waitAnswer) {
	t.Helper()
	switch {
	case a.err == nil && a.info.State == StateCancelled:
	case a.err != nil && strings.Contains(a.err.Error(), "HTTP 503"):
	default:
		t.Errorf("waiter released by Stop got %+v, %v; want state cancelled or HTTP 503", a.info, a.err)
	}
}

// TestWaitParamStatuses pins the parameter's status codes on the wire.
func TestWaitParamStatuses(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	close(r.gate)
	job := r.submit(t, 708)
	waitDone(t, job)
	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/jobs/" + job.ID() + "?wait=1000h", http.StatusOK}, // clamped, not refused
		{"/v1/jobs/" + job.ID() + "?wait=0", http.StatusOK},
		{"/v1/jobs/" + job.ID() + "?wait=-1s", http.StatusBadRequest},
		{"/v1/jobs/" + job.ID() + "?wait=abc", http.StatusBadRequest},
		{"/v1/jobs/" + job.ID() + "?wait=", http.StatusBadRequest},
		{"/v1/jobs/missing?wait=1s", http.StatusNotFound},
		{"/v1/jobs/missing?wait=abc", http.StatusBadRequest},
	} {
		if got, body := r.get(t, c.path); got != c.want {
			t.Errorf("GET %s: %d %s, want %d", c.path, got, body, c.want)
		}
	}
	if d, err := parseWait(url.Values{"wait": {"1000h"}}); err != nil || d != MaxWait {
		t.Errorf("parseWait(1000h) = %v, %v; want %v", d, err, MaxWait)
	}
	r.close(t)
}

// TestManagerWaitContext covers the primitive without HTTP in the way,
// where the error is visible: a done context releases it with that
// context's error.
func TestManagerWaitContext(t *testing.T) {
	r := newWaitRig(t, ManagerConfig{Executors: 1, QueueCap: 4}, nil)
	job := r.submit(t, 709)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.m.wait(ctx, job.ID(), MaxWait); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait under a done context: %v", err)
	}
	r.close(t)
}

// TestClientMethodsHonorCancelledContext calls every Client method that
// takes a context with one already cancelled, against a live server that
// would otherwise answer each of them: every call must end with
// context.Canceled, so each method hands its ctx on to the request.
func TestClientMethodsHonorCancelledContext(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{Executors: 1, QueueCap: 8}, func(_ context.Context, _ *Snapshot, spec JobSpec) (*core.Result, error) {
		return fakeResult(spec), nil
	})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "t")
	live := context.Background()
	info, err := c.Submit(live, JobSpec{Snapshot: "g", Kernel: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(live, info.ID); err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 3)
	id := info.ID
	calls := map[string]func(context.Context) error{
		"Health":           func(ctx context.Context) error { return c.Health(ctx) },
		"PutSnapshotGraph": func(ctx context.Context) error { _, err := c.PutSnapshotGraph(ctx, "h", g); return err },
		"Snapshots":        func(ctx context.Context) error { _, err := c.Snapshots(ctx); return err },
		"Submit": func(ctx context.Context) error {
			_, err := c.Submit(ctx, JobSpec{Snapshot: "g", Kernel: "cc"})
			return err
		},
		"Status":      func(ctx context.Context) error { _, err := c.Status(ctx, id); return err },
		"Wait":        func(ctx context.Context) error { _, err := c.Wait(ctx, id); return err },
		"ResultBytes": func(ctx context.Context) error { _, err := c.ResultBytes(ctx, id); return err },
		"Result":      func(ctx context.Context) error { _, err := c.Result(ctx, id); return err },
		"Cancel":      func(ctx context.Context) error { _, err := c.Cancel(ctx, id); return err },
		"Metrics":     func(ctx context.Context) error { _, err := c.Metrics(ctx); return err },
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range calls {
		if err := call(live); err != nil {
			t.Errorf("%s with a live context: %v", name, err)
		}
		if err := call(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a cancelled context: err = %v, want context.Canceled", name, err)
		}
	}
}
