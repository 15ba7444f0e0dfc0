package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// lyingServer answers every request on a raw connection: a 200 whose
// header declares declared bytes, then only sent of them, then a close.
func lyingServer(t *testing.T, declared int64, sent int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", declared)
		buf.Write(bytes.Repeat([]byte{'x'}, sent))
		buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClientShortBodyIsAnError: a body that ends before its declared
// length is an error at once — the read does not wait for bytes that the
// closed connection will never bring.
func TestClientShortBodyIsAnError(t *testing.T) {
	ts := lyingServer(t, 1000, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := NewClient(ts.URL, "").ResultBytes(ctx, "j1")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ResultBytes = %d bytes, err %v; want io.ErrUnexpectedEOF", len(b), err)
	}
	if ctx.Err() != nil {
		t.Fatal("the short read ran into the test's deadline")
	}
}

// TestClientDistrustsHugeDeclarations: a declared length above
// maxSizedBody is not allocated up front; the body is read as it comes.
func TestClientDistrustsHugeDeclarations(t *testing.T) {
	ts := lyingServer(t, maxSizedBody+1, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewClient(ts.URL, "").ResultBytes(context.Background(), "j1")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxSizedBody/4 {
		t.Fatalf("reading 4 KiB of a body declared %d bytes allocated %d bytes", int64(maxSizedBody+1), grew)
	}
}

// TestClientReadsChunkedBody: a body without a declared length arrives
// whole, as it always did.
func TestClientReadsChunkedBody(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 12<<10) // 192 KiB
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rc := http.NewResponseController(w)
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 10_000)
			_, _ = w.Write(rest[:n])
			_ = rc.Flush()
			rest = rest[n:]
		}
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != -1 {
		t.Fatalf("the test server declared %d bytes; the test needs an undeclared body", resp.ContentLength)
	}
	got, err := NewClient(ts.URL, "").ResultBytes(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes of a %d-byte chunked body, or other bytes", len(got), len(want))
	}
}

// sizedResultServer is the service over a fake executor whose results
// are about 171 KiB on the wire, serve-mix's size; newConns counts the
// connections it accepts.
func sizedResultServer(t testing.TB) (m *Manager, ts *httptest.Server, newConns *atomic.Int64) {
	t.Helper()
	m, _ = newTestManager(t, ManagerConfig{Executors: 1, QueueCap: 8}, nil)
	m.exec = marshalled(sizedExec(m, 16384))
	newConns = new(atomic.Int64)
	ts = httptest.NewUnstartedServer(NewServer(m))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return m, ts, newConns
}

// TestResultResponseDeclaresItsLength: the result route declares the
// length of exactly the bytes MarshalResult gives, and sends them.
func TestResultResponseDeclaresItsLength(t *testing.T) {
	m, ts, _ := sizedResultServer(t)
	spec := JobSpec{Snapshot: "g", Kernel: "cc", Seed: 3}
	job := submitDone(t, m, spec)
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Registry().Get("g")
	if !ok {
		t.Fatal("snapshot missing")
	}
	want, err := m.exec(context.Background(), snap, norm)
	snap.release()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served %d bytes that differ from MarshalResult's %d", len(body), len(want))
	}
}

// TestResultFetchesShareOneConnection: the exact-length read ends each
// body at its last byte with the connection still reusable, so fifty
// fetches of a result ride one keep-alive connection.
func TestResultFetchesShareOneConnection(t *testing.T) {
	m, ts, newConns := sizedResultServer(t)
	job := submitDone(t, m, JobSpec{Snapshot: "g", Kernel: "cc", Seed: 3})
	want, err := m.Result(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ts.URL, "t")
	for i := 0; i < 50; i++ {
		got, err := c.ResultBytes(context.Background(), job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %d: %d bytes that differ from the cached %d", i, len(got), len(want))
		}
	}
	if n := newConns.Load(); n != 1 {
		t.Fatalf("50 result fetches opened %d connections, want 1", n)
	}
}

// BenchmarkServeHit is serve-mix's hit path alone over loopback HTTP: one
// op is Submit, Wait and ResultBytes of a spec whose ~171 KiB result is
// already cached.
func BenchmarkServeHit(b *testing.B) {
	m, ts, _ := sizedResultServer(b)
	spec := JobSpec{Snapshot: "g", Kernel: "cc", Seed: 3}
	submitDone(b, m, spec)
	c := NewClient(ts.URL, "t")
	ctx := context.Background()
	hit := func() int {
		info, err := c.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if info, err = c.Wait(ctx, info.ID); err != nil || info.State != StateDone || !info.CacheHit {
			b.Fatalf("wait: %+v, %v; want a done cache hit", info, err)
		}
		body, err := c.ResultBytes(ctx, info.ID)
		if err != nil {
			b.Fatal(err)
		}
		return len(body)
	}
	b.SetBytes(int64(hit()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}
