package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

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
