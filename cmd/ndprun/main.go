// Command ndprun executes one (dataset, kernel, architecture) deployment
// on the simulator with every knob exposed — the workhorse for ad-hoc
// what-if questions the preset experiments don't cover.
//
// Examples:
//
//	ndprun -dataset twitter7 -kernel pagerank -arch disaggregated-ndp -partitions 16
//	ndprun -dataset wiki-talk -kernel bfs -arch disaggregated-ndp -policy heuristic
//	ndprun -dataset uk-2005 -kernel pagerank -arch disaggregated-ndp -aggregate -partitioner multilevel
//	ndprun -dataset com-livejournal -kernel cc -arch all -csv
//	ndprun -graph my.gcsr -kernel sssp -arch disaggregated -cache 0.25
//	ndprun -dataset twitter7 -kernel bfs -arch serial -direction auto
//	ndprun -store lj.gcsr2 -kernel bfs -store-mem 1048576 -store-verify
//	ndprun -dataset wiki-talk -kernel cc -cluster -treefanin 4 \
//	    -fault-seed 7 -fault-drop 0.2 -fault-dup 0.1 -crash 2@1
//
// With -server, ndprun becomes a client of a running ndpserve instance:
// it uploads the graph as a named snapshot, submits the same
// (kernel, architecture, …) selection as a job, waits for it to finish,
// and prints the served result — noting when the server answered from
// its result cache.
//
//	ndprun -dataset wiki-talk -kernel cc -server http://127.0.0.1:8090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliconf"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	var (
		gf cliconf.GraphFlags
		ef cliconf.EngineFlags
		ff cliconf.FaultFlags
		cf cliconf.ClusterFlags
	)
	gf.Register(flag.CommandLine)
	ef.Register(flag.CommandLine)
	ff.Register(flag.CommandLine)
	cf.Register(flag.CommandLine)
	var (
		perIter = flag.Bool("iters", false, "print the per-iteration ledger")
		csv     = flag.Bool("csv", false, "emit the summary as CSV")
		iterCSV = flag.String("itercsv", "", "write the per-iteration ledger as CSV to this file (single -arch only)")

		clusterMode = flag.Bool("cluster", false, "run on the concurrent actor cluster instead of the simulator (disaggregated-ndp only)")

		storePath   = flag.String("store", "", "run the kernel out-of-core from this gcsr2 container (no -dataset/-graph needed)")
		storeMem    = flag.Int64("store-mem", 0, "out-of-core local-memory budget in bytes for decompressed segments (0 = unlimited)")
		storeVerify = flag.Bool("store-verify", false, "with -store: also materialize the container in RAM, run serially, and fail unless results are bit-identical")

		serverURL = flag.String("server", "", "submit to a running ndpserve instance at this base URL instead of executing locally")
		tenant    = flag.String("tenant", "", "tenant name sent with -server submissions")
		snapName  = flag.String("snapshot", "", "snapshot name for -server (default: the dataset or graph-file label)")
	)
	flag.Parse()

	// One signal-aware context for everything ndprun does: Ctrl-C (or a
	// TERM from a supervisor) cancels served submissions and cluster
	// runs instead of leaving them to finish on their own.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -store executes directly from the container through the out-of-core
	// engine; the graph never materializes in RAM (unless -store-verify
	// cross-checks it against the serial reference).
	if *storePath != "" {
		if err := runStore(ctx, *storePath, *storeMem, *storeVerify, ef, *csv); err != nil {
			fatal(err)
		}
		return
	}

	g, err := gf.Load()
	if err != nil {
		fatal(err)
	}

	if *serverURL != "" {
		if err := runServed(ctx, g, gf, ef, cf, *clusterMode, *serverURL, *tenant, *snapName, *csv); err != nil {
			fatal(err)
		}
		return
	}

	k, err := ef.MakeKernel()
	if err != nil {
		fatal(err)
	}

	// -arch serial bypasses the simulator entirely: it runs the in-process
	// kernel engine (direction-optimized, staged-parallel) and reports the
	// traversal telemetry instead of the movement ledger.
	if ef.Arch == "serial" {
		if err := runSerialEngine(g, k, gf, ef, *csv); err != nil {
			fatal(err)
		}
		return
	}

	p, err := ef.MakePartitioner(gf.Seed)
	if err != nil {
		fatal(err)
	}
	assign, err := p.Partition(g, ef.Partitions)
	if err != nil {
		fatal(err)
	}
	pol, err := ef.MakePolicy()
	if err != nil {
		fatal(err)
	}
	dev, err := ndp.ByName(ef.Device)
	if err != nil {
		fatal(err)
	}
	topo := sim.DefaultTopology(ef.Computes, ef.Partitions)
	topo.MemDevice = dev
	topo.SwitchBufferEntries = ef.SwitchBuf

	if *clusterMode {
		if ef.Arch != "disaggregated-ndp" {
			fatal(fmt.Errorf("-cluster runs the concurrent disaggregated-ndp implementation; got -arch %s", ef.Arch))
		}
		plan, err := ff.Plan()
		if err != nil {
			fatal(err)
		}
		if err := runCluster(ctx, g, k, p, ef.Computes, ef.Partitions, ef.Aggregate, cf.TreeFanIn, cf.ChannelDepth, plan, *csv); err != nil {
			fatal(err)
		}
		return
	}

	archs := []string{ef.Arch}
	if ef.Arch == "all" {
		archs = []string{"distributed", "distributed-ndp", "disaggregated", "disaggregated-ndp"}
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s on %s (V=%d E=%d, %d partitions via %s, policy %s)",
			k.Name(), gf.Label(), g.NumVertices(), g.NumEdges(), ef.Partitions, p.Name(), pol.Name()),
		"Architecture", "Iterations", "Moved", "Sync events", "Est time (ms)", "Energy (mJ)", "Offload OK")
	for _, an := range archs {
		e, err := cliconf.MakeEngine(an, topo, assign, pol, ef.Aggregate, ef.CacheFrac, ef.Workers, g)
		if err != nil {
			fatal(err)
		}
		run, err := e.Run(g, k)
		if err != nil {
			fatal(err)
		}
		t.AddRow(run.Engine, run.Result.Iterations, graph.FormatBytes(run.TotalDataMovementBytes),
			run.TotalSyncEvents, run.TotalSeconds*1e3, run.TotalEnergyJoules*1e3, run.OffloadSupported)
		if *perIter {
			it := metrics.NewTable("per-iteration ledger — "+run.Engine,
				"Iter", "Frontier", "Edges", "Offloaded", "Moved", "Updates", "Writeback")
			for _, rec := range run.Records {
				it.AddRow(rec.Iteration, rec.FrontierSize, rec.ActiveEdges, rec.Offloaded,
					graph.FormatBytes(rec.DataMovementBytes), rec.PartialUpdates, graph.FormatBytes(rec.WritebackBytes))
			}
			if err := it.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if run.OffloadNote != "" {
			fmt.Fprintf(os.Stderr, "note: %s\n", run.OffloadNote)
		}
		if *iterCSV != "" && len(archs) == 1 {
			f, err := os.Create(*iterCSV)
			if err != nil {
				fatal(err)
			}
			if err := sim.WriteRecordsCSV(f, run); err != nil {
				_ = f.Close() // write error takes precedence
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote per-iteration ledger to %s\n", *iterCSV)
		}
	}
	if *csv {
		err = t.RenderCSV(os.Stdout)
	} else {
		err = t.Render(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// runSerialEngine executes the kernel on the in-process engine with the
// direction flags applied and prints the direction/inspection telemetry
// the hybrid traversal exists for.
func runSerialEngine(g *graph.Graph, k kernels.Kernel, gf cliconf.GraphFlags, ef cliconf.EngineFlags, csv bool) error {
	opt, err := ef.EngineOptions()
	if err != nil {
		return err
	}
	res, err := kernels.Run(g, k, opt)
	if err != nil {
		return err
	}
	var nominal int64
	for _, e := range res.ActiveEdges {
		nominal += e
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s on %s (V=%d E=%d, kernel engine, direction %s, workers=%d)",
			k.Name(), gf.Label(), g.NumVertices(), g.NumEdges(), opt.Direction, opt.Workers),
		"Iterations", "Converged", "Push iters", "Pull iters", "Frontier edges", "Edges inspected")
	t.AddRow(res.Iterations, res.Converged, res.PushIterations, res.PullIterations, nominal, res.EdgesInspected)
	render := t.Render
	if csv {
		render = t.RenderCSV
	}
	return render(os.Stdout)
}

// runStore executes the kernel straight from a gcsr2 container: edges
// are pinned through the store's segment tier (the "local memory" tier)
// instead of an in-RAM CSR, and the telemetry reports the tier traffic
// the budget produced. With verify, the container is also materialized
// and run on the serial reference, and the two value vectors must be
// bit-identical.
func runStore(ctx context.Context, path string, localBytes int64, verify bool, ef cliconf.EngineFlags, csv bool) error {
	st, err := store.OpenFile(path, store.Options{LocalBytes: localBytes})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	k, err := ef.MakeKernel()
	if err != nil {
		return err
	}
	digest, err := st.Digest()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "container %s: V=%d E=%d segments=%d digest %s\n",
		path, st.NumVertices(), st.NumEdges(), st.NumSegments(), digest)

	res, err := core.StoreEngine(st).Run(ctx, nil, k, core.RunConfig{})
	if err != nil {
		return err
	}
	stats := st.Stats()
	t := metrics.NewTable(
		fmt.Sprintf("%s out-of-core from %s (V=%d E=%d, budget %s)",
			k.Name(), path, st.NumVertices(), st.NumEdges(), formatBudget(localBytes)),
		"Iterations", "Converged", "Seg hits", "Seg misses", "Evictions", "Far-memory", "Peak resident")
	t.AddRow(res.Iterations, res.Converged, stats.Hits, stats.Misses, stats.Evictions,
		graph.FormatBytes(stats.FarBytes), graph.FormatBytes(stats.PeakResidentBytes))
	render := t.Render
	if csv {
		render = t.RenderCSV
	}
	if err := render(os.Stdout); err != nil {
		return err
	}

	if verify {
		g, err := st.Materialize()
		if err != nil {
			return err
		}
		kk, err := ef.MakeKernel() // fresh instance: stateful kernels carry run state
		if err != nil {
			return err
		}
		want, err := core.SerialEngine().Run(ctx, g, kk, core.RunConfig{})
		if err != nil {
			return err
		}
		if res.Iterations != want.Iterations || res.Converged != want.Converged {
			return fmt.Errorf("store-verify: telemetry diverged (iterations %d vs %d)", res.Iterations, want.Iterations)
		}
		for i := range want.Values {
			gv, wv := res.Values[i], want.Values[i]
			if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				return fmt.Errorf("store-verify: value[%d] = %v out-of-core, %v in-memory", i, gv, wv)
			}
		}
		fmt.Fprintf(os.Stderr, "store-verify: out-of-core run is bit-identical to the in-memory serial reference (%d vertices)\n", len(want.Values))
	}
	return nil
}

// formatBudget renders the local-memory budget (0 = unlimited).
func formatBudget(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return graph.FormatBytes(b)
}

// runServed submits the run to an ndpserve instance: upload the graph
// as a snapshot, submit the job spec, wait, and print the served result.
func runServed(ctx context.Context, g *graph.Graph, gf cliconf.GraphFlags, ef cliconf.EngineFlags, cf cliconf.ClusterFlags,
	clusterMode bool, serverURL, tenant, snapName string, csv bool) error {
	c := serve.NewClient(serverURL, tenant)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("server %s: %w", serverURL, err)
	}
	if snapName == "" {
		snapName = gf.Label()
		if snapName == "" {
			snapName = "adhoc"
		}
	}
	snap, err := c.PutSnapshotGraph(ctx, snapName, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot %s: V=%d E=%d digest %.12s…\n", snap.Name, snap.Vertices, snap.Edges, snap.Digest)

	engine := serve.EngineSim
	if clusterMode {
		engine = serve.EngineCluster
	}
	aggregate := ef.Aggregate
	spec := serve.JobSpec{
		Snapshot:     snapName,
		Engine:       engine,
		Kernel:       ef.Kernel,
		PRIters:      ef.PRIters,
		Arch:         ef.Arch,
		Partitions:   ef.Partitions,
		Computes:     ef.Computes,
		Partitioner:  ef.Partitioner,
		Seed:         gf.Seed,
		Policy:       ef.Policy,
		Aggregation:  &aggregate,
		TreeFanIn:    cf.TreeFanIn,
		ChannelDepth: cf.ChannelDepth,
		Workers:      ef.Workers,
	}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	info, err = c.Wait(ctx, info.ID)
	if err != nil {
		return err
	}
	if info.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	if info.CacheHit {
		fmt.Fprintf(os.Stderr, "job %s answered from the server's result cache\n", info.ID)
	}
	res, err := c.Result(ctx, info.ID)
	if errors.Is(err, serve.ErrJobExpired) {
		return fmt.Errorf("job %s: result expired, resubmit", info.ID)
	}
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s served by %s (snapshot %s, job %s)", res.Kernel, serverURL, snapName, info.ID),
		"Engine", "Iterations", "Converged", "Moved", "Cache hit")
	moved := res.TotalDataMovementBytes
	if moved == 0 {
		moved = res.SwitchToCompute + res.Writeback
	}
	t.AddRow(res.Engine, res.Iterations, res.Converged, graph.FormatBytes(moved), info.CacheHit)
	render := t.Render
	if csv {
		render = t.RenderCSV
	}
	return render(os.Stdout)
}

// runCluster executes the kernel on the concurrent actor implementation,
// configured entirely through core's functional options, and reports the
// measured traffic plus the fault/recovery counters.
func runCluster(ctx context.Context, g *graph.Graph, k kernels.Kernel, p partition.Partitioner,
	computes, partitions int, aggregate bool, treeFanIn, chanDepth int,
	plan cluster.FaultPlan, csv bool) error {
	sys, err := core.New(core.DisaggregatedNDP,
		core.WithComputeNodes(computes),
		core.WithMemoryNodes(partitions),
		core.WithPartitioner(p),
		core.WithAggregation(aggregate),
		core.WithTreeFanIn(treeFanIn),
		core.WithChannelDepth(chanDepth),
		core.WithFaultPlan(plan),
	)
	if err != nil {
		return err
	}
	out, err := sys.ConcurrentEngine().Run(ctx, g, k, core.RunConfig{})
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s on concurrent cluster (V=%d E=%d, %d memory nodes, %d compute nodes)",
			k.Name(), g.NumVertices(), g.NumEdges(), partitions, computes),
		"Iterations", "Converged", "Mem->Switch", "Switch->Compute", "Writeback", "Total moved")
	t.AddRow(out.Iterations, out.Converged,
		graph.FormatBytes(out.Traffic.MemToSwitch),
		graph.FormatBytes(out.Traffic.SwitchToCompute),
		graph.FormatBytes(out.Traffic.Writeback),
		graph.FormatBytes(out.Traffic.Total()))
	render := t.Render
	if csv {
		render = t.RenderCSV
	}
	if err := render(os.Stdout); err != nil {
		return err
	}
	ft := metrics.NewTable("fault injection and recovery",
		"Drops", "Duplicates", "Delays", "Retries", "Acks", "Crashes", "Redispatches", "Virtual ticks")
	f := out.Faults
	ft.AddRow(f.Drops, f.Duplicates, f.Delays, f.Retries, f.Acks, f.Crashes, f.Redispatches, f.VirtualTicks)
	fr := ft.Render
	if csv {
		fr = ft.RenderCSV
	}
	return fr(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndprun: %v\n", err)
	os.Exit(1)
}
