package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// TestSlowClientIsDisconnected boots the server exactly as main builds it
// and holds a connection open with half a request line: the server must
// hang up within readHeaderTimeout (plus scheduling slack) instead of
// keeping the goroutine and descriptor forever, and a well-formed request
// made while the slow client is still stalling must be unaffected.
func TestSlowClientIsDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the real read-header timeout")
	}
	mgr := serve.NewManager(serve.NewRegistry(), &metrics.Registry{}, serve.ManagerConfig{Executors: 1, QueueCap: 1})
	defer mgr.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), serve.NewServer(mgr))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := slow.Write([]byte("GET /v1/heal")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz beside a stalled client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled client: status %d", resp.StatusCode)
	}

	// The read returns when the server gives up on the headers (it
	// answers an error status first); the deadline only keeps a regression from
	// hanging the test.
	const slack = 3 * time.Second
	if err := slow.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Fatalf("stalled connection still open %v after connecting: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestShutdownWithParkedWaiter runs main's teardown, what SIGTERM leads
// to, with a client parked in ?wait= on a job that outlasts the test:
// the drain must not sit on the waiter's 30 s bound (it would burn the
// whole 10 s shutdown budget and then cut the connection), the waiter
// must get an answer — the job's cancelled state, or a 503 from the
// stopping manager — and nothing may be left running or pinned
// afterwards.
func TestShutdownWithParkedWaiter(t *testing.T) {
	base := runtime.NumGoroutine()
	// Connected components on a directed path: the smallest label moves
	// one vertex an iteration while every other vertex keeps relabelling,
	// so the job is ten seconds of work from a graph built in a
	// millisecond — a thousand times what the waiter needs to park — and
	// the engine checks its context every iteration.
	const n = 1 << 16
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Put("g", g); err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(reg, &metrics.Registry{}, serve.ManagerConfig{Executors: 1, QueueCap: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), serve.NewServer(mgr))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	c := serve.NewClient("http://"+ln.Addr().String(), "t")
	bg := context.Background()
	job, err := c.Submit(bg, serve.JobSpec{Snapshot: "g", Engine: serve.EngineSerial, Kernel: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		info serve.JobInfo
		err  error
	}
	waiter := make(chan answer, 1)
	go func() {
		info, err := c.Wait(bg, job.ID)
		waiter <- answer{info, err}
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		m, err := c.Metrics(bg)
		if err != nil {
			t.Fatal(err)
		}
		if m[serve.CounterWaitsParked] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiter never parked")
		}
	}

	start := time.Now()
	shutdown(srv, mgr)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("serve: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("shutdown with a waiter parked took %v, want under 2s", took)
	}
	switch a := <-waiter; {
	case a.err == nil && a.info.State == serve.StateCancelled:
	case a.err != nil && strings.Contains(a.err.Error(), "HTTP 503"):
	default:
		t.Errorf("parked waiter got %+v, %v; want state cancelled or HTTP 503", a.info, a.err)
	}
	if snaps := reg.List(); len(snaps) != 1 || snaps[0].Refs != 1 {
		t.Errorf("snapshots after shutdown: %+v, want one with the registry's reference only", snaps)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle: base %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
