package verify

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
)

// Served oracle families.
const (
	// OracleServed asserts HTTP-served results are byte-identical to a
	// direct offline core run of the same spec on the same graph.
	OracleServed = "served-differential"
	// OracleCache asserts a repeat submission is answered from the
	// result cache — same bytes, cache-hit flag, and counter movement.
	OracleCache = "served-cache"
	// OraclePlan asserts a resubmission at a new seed is computed to the
	// offline bytes and shares the first run's plan iff the partitioner
	// values of the two seeds are equal.
	OraclePlan = "served-plan"
	// OracleTrace asserts one execution prices under every architecture:
	// the simulator spec resubmitted under each of them executes nothing,
	// and every answer is the offline twin's bytes.
	OracleTrace = "served-trace"
)

// CheckServed is the served-vs-offline oracle: it boots an in-process
// ndpserve instance on a loopback port, uploads the scenario's graph as
// a snapshot, runs the scenario's workload through the HTTP job API,
// and asserts the served result bytes equal serve.MarshalResult of a
// direct core run — the service layer (wire format, job manager,
// snapshot registry, result cache) must be a transparent shell around
// the engines. It then re-submits the identical spec and asserts the
// answer comes from the result cache, byte for byte, and submits it once
// more at a seed no earlier job used, which must be computed afresh and
// share the first run's plan exactly when the partitioner ignores seeds.
// Last, the simulator spec is priced under every architecture from the
// one execution the service keeps.
func CheckServed(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return failf(OracleServed, "invalid scenario: %v", err)
	}
	g, err := sc.BuildGraph()
	if err != nil {
		return failf(OracleServed, "building graph: %v", err)
	}

	mgr := serve.NewManager(serve.NewRegistry(), &metrics.Registry{}, serve.ManagerConfig{
		Executors: 2,
		QueueCap:  8,
	})
	defer mgr.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return failf(OracleServed, "listen: %v", err)
	}
	// The Serve goroutine is joined on exit: Shutdown drains in-flight
	// requests, and receiving from served proves the goroutine is gone —
	// an oracle run must not change the caller's goroutine count.
	srv := &http.Server{Handler: serve.NewServer(mgr)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			_ = srv.Close()
		}
		<-served
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := serve.NewClient("http://"+ln.Addr().String(), "verify")

	info, err := c.PutSnapshotGraph(ctx, "scenario", g)
	if err != nil {
		return failf(OracleServed, "upload snapshot: %v", err)
	}
	wantDigest, err := serve.GraphDigest(g)
	if err != nil {
		return failf(OracleServed, "digest: %v", err)
	}
	if info.Digest != wantDigest {
		return failf(OracleServed, "served digest %s, local graph digest %s", info.Digest, wantDigest)
	}

	agg := sc.Aggregation
	sim := serve.JobSpec{
		Snapshot:    "scenario",
		Engine:      serve.EngineSim,
		Kernel:      sc.Kernel,
		Partitions:  sc.Partitions,
		Computes:    sc.ComputeNodes,
		Partitioner: sc.Partitioner,
		Seed:        sc.Seed,
		Aggregation: &agg,
		Workers:     sc.Workers,
	}
	specs := []serve.JobSpec{sim}
	if sc.Cluster {
		cl := sim
		cl.Engine, cl.Workers, cl.TreeFanIn, cl.ChannelDepth = serve.EngineCluster, 0, sc.TreeFanIn, sc.ChannelDepth
		specs = append(specs, cl)
	}
	for i, spec := range specs {
		if err := checkServedSpec(ctx, c, g, spec, sc.Seed+1+uint64(i)); err != nil {
			return err
		}
	}
	return checkServedTrace(ctx, c, g, sim)
}

// checkServedTrace resubmits spec, whose execution the service already
// keeps, under every architecture. Each answer must be its offline twin's
// bytes, and the ones not served from the result cache must all be priced
// from the kept trace: trace hits move by their number, misses not at all.
func checkServedTrace(ctx context.Context, c *serve.Client, g *graph.Graph, spec serve.JobSpec) error {
	before, err := c.Metrics(ctx)
	if err != nil {
		return failf(OracleTrace, "metrics: %v", err)
	}
	var priced int64
	for _, arch := range core.Architectures() {
		spec.Arch = arch.String()
		want, err := offlineBytes(ctx, g, spec)
		if err != nil {
			return failf(OracleTrace, "%s: %v", spec.Arch, err)
		}
		info, got, err := runServed(ctx, c, spec)
		if err != nil {
			return failf(OracleTrace, "%s: %v", spec.Arch, err)
		}
		if !bytes.Equal(got, want) {
			return failf(OracleTrace, "%s: served result differs from offline run (%d vs %d bytes)", spec.Arch, len(got), len(want))
		}
		if !info.CacheHit {
			priced++
		}
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		return failf(OracleTrace, "metrics: %v", err)
	}
	hits := after[serve.CounterTraceCacheHits] - before[serve.CounterTraceCacheHits]
	misses := after[serve.CounterTraceCacheMisses] - before[serve.CounterTraceCacheMisses]
	if hits != priced || misses != 0 {
		return failf(OracleTrace, "%d architectures priced a kept execution, but trace hits moved by %d and misses by %d",
			priced, hits, misses)
	}
	return nil
}

// checkServedSpec runs one spec through the HTTP API three times: the
// first submission is compared byte-for-byte against the offline run, the
// second must be a cache hit with identical bytes, and the third, at
// reseed (a seed no earlier submission used), must pass checkReseeded.
func checkServedSpec(ctx context.Context, c *serve.Client, g *graph.Graph, spec serve.JobSpec, reseed uint64) error {
	want, err := offlineBytes(ctx, g, spec)
	if err != nil {
		return failf(OracleServed, "%s: %v", spec.Engine, err)
	}

	before, err := c.Metrics(ctx)
	if err != nil {
		return failf(OracleServed, "%s: metrics: %v", spec.Engine, err)
	}

	_, got, err := runServed(ctx, c, spec)
	if err != nil {
		return failf(OracleServed, "%s: %v", spec.Engine, err)
	}
	if !bytes.Equal(got, want) {
		return failf(OracleServed, "%s: served result differs from offline run (%d vs %d bytes)",
			spec.Engine, len(got), len(want))
	}

	second, got2, err := runServed(ctx, c, spec)
	if err != nil {
		return failf(OracleCache, "%s: resubmit: %v", spec.Engine, err)
	}
	if !second.CacheHit {
		return failf(OracleCache, "%s: identical resubmission was not served from the result cache", spec.Engine)
	}
	if !bytes.Equal(got2, want) {
		return failf(OracleCache, "%s: cached result bytes differ from the first run", spec.Engine)
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		return failf(OracleCache, "%s: metrics: %v", spec.Engine, err)
	}
	hits := after[serve.CounterResultCacheHits] - before[serve.CounterResultCacheHits]
	if hits < 1 {
		return failf(OracleCache, "%s: cache-hit counter did not move (delta %d)", spec.Engine, hits)
	}
	return checkReseeded(ctx, c, g, spec, reseed, want)
}

// checkReseeded submits spec again at seed, which no earlier submission
// used. The seed is part of the result-cache key, so the job must be
// computed, and its bytes must equal the offline run at seed. The plan
// cache keys on the partitioner's value: if spec's partitioner builds
// equal values at both seeds the job must reuse the plan, and so return
// first's bytes; otherwise it must compute a new plan.
func checkReseeded(ctx context.Context, c *serve.Client, g *graph.Graph, spec serve.JobSpec, seed uint64, first []byte) error {
	prev := spec
	spec.Seed = seed
	if err := errors.Join(prev.Normalize(), spec.Normalize()); err != nil {
		return failf(OraclePlan, "%s: normalize: %v", spec.Engine, err)
	}
	p0, err0 := partition.ByName(prev.Partitioner, prev.Seed)
	p1, err1 := partition.ByName(spec.Partitioner, spec.Seed)
	want, err2 := offlineBytes(ctx, g, spec)
	before, err3 := c.Metrics(ctx)
	if err := errors.Join(err0, err1, err2, err3); err != nil {
		return failf(OraclePlan, "%s: seed %d: %v", spec.Engine, seed, err)
	}
	info, got, err := runServed(ctx, c, spec)
	if err != nil {
		return failf(OraclePlan, "%s: seed %d: %v", spec.Engine, seed, err)
	}
	if info.CacheHit {
		return failf(OraclePlan, "%s: a submission at the new seed %d was served from the result cache", spec.Engine, seed)
	}
	if !bytes.Equal(got, want) {
		return failf(OraclePlan, "%s: served result at seed %d differs from offline run (%d vs %d bytes)",
			spec.Engine, seed, len(got), len(want))
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		return failf(OraclePlan, "%s: metrics: %v", spec.Engine, err)
	}
	hits := after[serve.CounterPlanCacheHits] - before[serve.CounterPlanCacheHits]
	misses := after[serve.CounterPlanCacheMisses] - before[serve.CounterPlanCacheMisses]
	wantHits, wantMisses := int64(0), int64(1)
	if p0 == p1 {
		wantHits, wantMisses = 1, 0
	}
	if hits != wantHits || misses != wantMisses {
		return failf(OraclePlan, "%s: %s at seed %d after %d moved plan hits by %d and misses by %d, want %d and %d",
			spec.Engine, spec.Partitioner, seed, prev.Seed, hits, misses, wantHits, wantMisses)
	}
	if p0 == p1 && !bytes.Equal(got, first) {
		return failf(OraclePlan, "%s: %s builds one value at seeds %d and %d, yet their results differ",
			spec.Engine, spec.Partitioner, prev.Seed, seed)
	}
	return nil
}

// offlineBytes is the offline expectation for spec: the same spec on the
// same graph, no server, marshalled as the service would.
func offlineBytes(ctx context.Context, g *graph.Graph, spec serve.JobSpec) ([]byte, error) {
	if err := spec.Normalize(); err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	res, err := serve.ExecuteSpec(ctx, g, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("offline run: %w", err)
	}
	return serve.MarshalResult(res)
}

// runServed submits spec, waits for it to finish, and fetches its bytes.
func runServed(ctx context.Context, c *serve.Client, spec serve.JobSpec) (serve.JobInfo, []byte, error) {
	info, err := submitAndWait(ctx, c, spec)
	if err != nil {
		return info, nil, err
	}
	b, err := c.ResultBytes(ctx, info.ID)
	if err != nil {
		return info, nil, fmt.Errorf("fetch result of %s: %w", info.ID, err)
	}
	return info, b, nil
}

func submitAndWait(ctx context.Context, c *serve.Client, spec serve.JobSpec) (serve.JobInfo, error) {
	info, err := c.Submit(ctx, spec)
	if err != nil {
		return serve.JobInfo{}, fmt.Errorf("submit: %w", err)
	}
	info, err = c.Wait(ctx, info.ID)
	if err != nil {
		return serve.JobInfo{}, fmt.Errorf("wait %s: %w", info.ID, err)
	}
	if info.State != serve.StateDone {
		return serve.JobInfo{}, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	return info, nil
}
