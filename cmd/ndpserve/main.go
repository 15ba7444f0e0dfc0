// Command ndpserve runs the multi-tenant graph-analytics service: it
// loads CSR graphs once as immutable, refcounted snapshots and serves
// concurrent analytics jobs over them through the unified core.Engine
// API — submit a JSON job spec, wait on its status (?wait= holds the
// request until the job has finished), fetch the canonical result.
// Identical submissions against the same snapshot are answered from the
// result cache byte for byte.
//
//	ndpserve -addr 127.0.0.1:8090 -snapshot wiki=wiki-talk:0.25
//
//	curl -s -X POST 127.0.0.1:8090/v1/jobs -H 'X-Tenant: alice' \
//	    -d '{"snapshot":"wiki","kernel":"cc"}'
//	curl -s '127.0.0.1:8090/v1/jobs/j00000001?wait=30s'
//	curl -s 127.0.0.1:8090/v1/jobs/j00000001/result
//
// Snapshots can also be uploaded at runtime (PUT /v1/snapshots/{name}
// with a .gcsr body, or `ndprun -server`); re-uploading a name swaps
// the snapshot atomically while in-flight jobs drain on the old one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliconf"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// snapshotSpec is one -snapshot flag value: name=dataset:scale[:seed],
// name=path.gcsr, or name=path.gcsr2 (out-of-core container; the
// snapshot digest becomes the container checksum).
type snapshotSpec struct {
	name      string
	dataset   string
	file      string
	container string
	scale     float64
	seed      uint64
}

func parseSnapshotSpec(v string) (snapshotSpec, error) {
	name, src, ok := strings.Cut(v, "=")
	if !ok || name == "" || src == "" {
		return snapshotSpec{}, fmt.Errorf("snapshot %q: want name=dataset:scale[:seed], name=path.gcsr, or name=path.gcsr2", v)
	}
	sp := snapshotSpec{name: name, scale: 0.5, seed: 42}
	if strings.HasSuffix(src, ".gcsr2") {
		sp.container = src
		return sp, nil
	}
	if strings.HasSuffix(src, ".gcsr") {
		sp.file = src
		return sp, nil
	}
	parts := strings.Split(src, ":")
	sp.dataset = parts[0]
	if len(parts) > 1 {
		scale, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return snapshotSpec{}, fmt.Errorf("snapshot %q: bad scale: %v", v, err)
		}
		sp.scale = scale
	}
	if len(parts) > 2 {
		seed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return snapshotSpec{}, fmt.Errorf("snapshot %q: bad seed: %v", v, err)
		}
		sp.seed = seed
	}
	if len(parts) > 3 {
		return snapshotSpec{}, fmt.Errorf("snapshot %q: too many fields", v)
	}
	return sp, nil
}

// Slow-client bounds. A client that connects and never finishes its
// request headers, or finishes a request and then sits on the keep-alive
// connection, would otherwise hold a goroutine and a descriptor for as
// long as it likes. Whole-request read and write deadlines are left
// unset on purpose: a large PUT /v1/snapshots upload or a long result
// download is legitimate at any duration, and a WriteTimeout below
// serve.MaxWait would cut a parked GET /v1/jobs/{id}?wait= off before
// its answer (that park is bounded by MaxWait, the job, the client's
// connection and the manager's Stop instead).
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address")
		executors   = flag.Int("executors", 2, "concurrent job executors")
		queueCap    = flag.Int("queue", 16, "queued-job bound; submissions beyond it get HTTP 429")
		tenantQuota = flag.Int("tenant-quota", 0, "per-tenant bound on queued+running jobs (0 = unlimited)")
	)
	var snaps []snapshotSpec
	flag.Func("snapshot", "preload a snapshot, name=dataset:scale[:seed] or name=path.gcsr (repeatable)", func(v string) error {
		sp, err := parseSnapshotSpec(v)
		if err != nil {
			return err
		}
		snaps = append(snaps, sp)
		return nil
	})
	flag.Parse()

	reg := serve.NewRegistry()
	for _, sp := range snaps {
		var (
			info serve.SnapshotInfo
			err  error
		)
		if sp.container != "" {
			info, err = reg.PutContainerFile(sp.name, sp.container)
		} else {
			var g *graph.Graph
			g, err = cliconf.LoadGraph(sp.dataset, sp.file, sp.scale, sp.seed)
			if err == nil {
				info, err = reg.Put(sp.name, g)
			}
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ndpserve: snapshot %s: V=%d E=%d digest %.12s…\n",
			info.Name, info.Vertices, info.Edges, info.Digest)
	}

	mgr := serve.NewManager(reg, &metrics.Registry{}, serve.ManagerConfig{
		Executors:   *executors,
		QueueCap:    *queueCap,
		TenantQuota: *tenantQuota,
	})
	srv := newHTTPServer(*addr, serve.NewServer(mgr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ndpserve: listening on %s (%d executors, queue %d, tenant quota %d)\n",
		*addr, *executors, *queueCap, *tenantQuota)

	select {
	case err := <-errCh:
		mgr.Stop()
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "ndpserve: shutting down")
	shutdown(srv, mgr)
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// shutdown tears down manager first, server second. Stop cancels every
// job and releases every request parked in ?wait=, so the drain that
// follows waits for handlers already on their way out; the other order
// would spend the whole drain budget on one waiter's bound and then cut
// its connection.
func shutdown(srv *http.Server, mgr *serve.Manager) {
	mgr.Stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ndpserve: shutdown: %v\n", err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpserve: %v\n", err)
	os.Exit(1)
}
