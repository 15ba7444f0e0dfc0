// Command ndprun executes one (dataset, kernel, architecture) deployment
// on the simulator with every knob exposed — the workhorse for ad-hoc
// what-if questions the preset experiments don't cover.
//
// Examples:
//
//	ndprun -dataset twitter7 -kernel pagerank -arch disaggregated-ndp -partitions 16
//	ndprun -dataset wiki-talk -kernel bfs -policy always -partitioner hash
//	ndprun -dataset uk-2005 -kernel pagerank -aggregate=false -switchbuffer 4096
//	ndprun -dataset com-livejournal -kernel cc -arch all -csv
//	ndprun -graph my.gcsr -kernel sssp -arch disaggregated
//	ndprun -dataset twitter7 -kernel bfs -arch serial -direction auto
//	ndprun -store lj.gcsr2 -kernel bfs -arch serial -store-mem 1048576 -store-verify
//	ndprun -store lj.gcsr2 -kernel pagerank -arch all -partitioner hash
//	ndprun -dataset wiki-talk -kernel cc -cluster -treefanin 4 \
//	    -fault-seed 7 -fault-drop 0.2 -fault-dup 0.1 -crash 2@1
//
// The flags describe one core.Spec, on core.DefaultSpec's values: with no
// knobs set, the same machine core.DefaultSpec().System() builds and a
// served job describes (core.New and its options are the benchmark
// harness's alone). The spec's System is built before the graph is
// loaded, so a machine it cannot be, such as a crash schedule past the
// pool, fails first. A set flag the selected engine or architecture does
// not read (core.Spec.Unread) is refused, not dropped.
//
// With -store, the graph is an out-of-core container read in place by
// the same run -graph would start, followed by the tier's traffic.
//
// With -server, ndprun becomes a client of a running ndpserve instance:
// it uploads the graph as a named snapshot, submits the same
// (kernel, architecture, …) selection as a job, waits for it to finish,
// and prints the served result — noting when the server answered from
// its result cache. A flag the job wire format cannot carry is refused,
// not dropped.
//
//	ndprun -dataset wiki-talk -kernel cc -server http://127.0.0.1:8090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"reflect"
	"slices"
	"strings"
	"syscall"

	"repro/internal/cliconf"
	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/verify"
)

// flags is every ndprun flag.
type flags struct {
	gf cliconf.GraphFlags
	rf cliconf.RunFlags

	perIter, csv bool
	iterCSV      string

	storePath   string
	storeMem    int64
	storeVerify bool

	serverURL, tenant, snapName string
}

func (o *flags) register(fs *flag.FlagSet) {
	o.gf.Register(fs)
	o.rf.Register(fs)
	fs.BoolVar(&o.perIter, "iters", false, "print the per-iteration ledger")
	fs.BoolVar(&o.csv, "csv", false, "emit the summary as CSV")
	fs.StringVar(&o.iterCSV, "itercsv", "", "write the per-iteration ledger as CSV to this file (one simulated -arch only)")
	fs.StringVar(&o.storePath, "store", "", "read the graph out-of-core from this gcsr2 container instead of -dataset/-graph")
	fs.Int64Var(&o.storeMem, "store-mem", 0, "out-of-core local-memory budget in bytes for decompressed segments (0 = unlimited)")
	fs.BoolVar(&o.storeVerify, "store-verify", false, "with -store: also materialize the container in RAM, run the same again, and fail unless results are bit-identical")
	fs.StringVar(&o.serverURL, "server", "", "submit to a running ndpserve instance at this base URL instead of executing locally")
	fs.StringVar(&o.tenant, "tenant", "", "tenant name sent with -server submissions")
	fs.StringVar(&o.snapName, "snapshot", "", "snapshot name for -server (default: the dataset or graph-file label)")
}

// A modeLimit is a mode and the flags it cannot honour.
type modeLimit struct {
	mode  string
	on    bool
	flags []string
}

// limits is every mode of the command line itself and what it cannot
// honour: the job wire format has no field for -server's list; a
// container is the graph, which the service and the cluster do not read;
// only the simulator keeps a ledger, and one ledger file cannot hold four
// architectures, nor one served job; the store's knobs have no store to
// act on. What each engine and architecture reads is core's to say
// (core.Spec.Unread), not this table's.
func (o *flags) limits(run string, spec core.Spec) []modeLimit {
	return []modeLimit{
		{"-server", o.serverURL != "", []string{"device", "switchbuffer", "direction", "fault-seed", "fault-drop", "fault-dup", "fault-delay", "crash", "iters", "itercsv"}},
		{"-store", o.storePath != "", []string{"dataset", "graph", "scale", "server", "cluster"}},
		{run, spec.Engine != core.EngineSim, []string{"iters", "itercsv"}},
		{"-arch all", o.rf.Arch == "all", []string{"itercsv", "server"}},
		{"no -store", o.storePath == "", []string{"store-mem", "store-verify"}},
	}
}

// spec is the run the flags parsed into fs describe. It refuses, in one
// error that names them, every flag set on fs that the mode or the run
// would otherwise drop silently.
func (o *flags) spec(fs *flag.FlagSet) (core.Spec, error) {
	spec, err := o.rf.Spec(o.gf.Seed)
	if err != nil {
		return spec, err
	}
	run := "-arch " + o.rf.Arch
	if o.rf.Cluster {
		run = "-cluster"
	}
	limits, unread := o.limits(run, spec), spec.Unread()
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		for _, l := range limits {
			if l.on && slices.Contains(l.flags, f.Name) {
				bad = append(bad, fmt.Sprintf("-%s (%s)", f.Name, l.mode))
				return
			}
		}
		if slices.Contains(unread, o.rf.Field(f.Name)) {
			bad = append(bad, fmt.Sprintf("-%s (%s)", f.Name, run))
		}
	})
	if len(bad) > 0 {
		return spec, fmt.Errorf("refusing flags this run cannot honour: %s", strings.Join(bad, ", "))
	}
	return spec, nil
}

func main() {
	var o flags
	o.register(flag.CommandLine)
	flag.Parse()
	// One signal-aware context for everything ndprun does: Ctrl-C (or a
	// TERM from a supervisor) cancels served submissions and cluster
	// runs instead of leaving them to finish on their own.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := o.run(ctx, flag.CommandLine, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes the mode the flags parsed into fs select, printing its
// tables to w.
func (o *flags) run(ctx context.Context, fs *flag.FlagSet, w io.Writer) error {
	spec, err := o.spec(fs)
	if err != nil {
		return err
	}
	if _, err := spec.System(); err != nil {
		return err
	}
	if o.storePath != "" {
		return o.runStore(ctx, spec, w)
	}
	g, err := o.gf.Load()
	if err != nil {
		return err
	}
	if o.serverURL != "" {
		return runServed(ctx, g, o.gf, spec, o.serverURL, o.tenant, o.snapName, o.csv)
	}
	_, err = o.execute(ctx, spec, g, o.gf.Label(), w)
	return err
}

// execute runs a fresh instance of the kernel on src in the mode spec
// selects, printing its tables to w, and returns its results. -arch
// serial bypasses the simulator entirely: it runs the in-process kernel
// engine (direction-optimized, staged-parallel) and reports the
// traversal telemetry instead of the movement ledger.
func (o *flags) execute(ctx context.Context, spec core.Spec, src kernels.Source, label string, w io.Writer) ([]*core.Result, error) {
	k, err := kernels.ByNameIters(spec.Kernel, spec.PRIters)
	if err != nil {
		return nil, err
	}
	if spec.Engine == core.EngineSerial {
		return runSerialEngine(ctx, w, src, k, label, spec, o.csv)
	}
	sys, err := spec.System()
	if err != nil {
		return nil, err
	}
	if spec.Engine == core.EngineCluster {
		return runCluster(ctx, w, src, k, sys, o.csv)
	}
	return runSim(ctx, w, src, k, sys, label, o.rf.Arch == "all", o.perIter, o.iterCSV, o.csv)
}

// runSim runs the kernel on the system's architecture, or on all four
// for -arch all, over one partitioning and prints the movement ledger.
// Every engine runs under ctx, so Ctrl-C ends the sweep within one
// iteration.
func runSim(ctx context.Context, w io.Writer, src kernels.Source, k kernels.Kernel, sys *core.System,
	label string, all, perIter bool, iterCSV string, csv bool) ([]*core.Result, error) {
	g := src.Vertices()
	assign, err := sys.Partition(g)
	if err != nil {
		return nil, err
	}
	var runs []*core.Result
	if all {
		runs, err = sys.CompareWithAssignment(ctx, src, k, assign)
	} else {
		var run *core.Result
		run, err = sys.Engine().Run(ctx, src, k, core.RunConfig{Assignment: assign})
		runs = []*core.Result{run}
	}
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("%s on %s (V=%d E=%d, %d partitions via %s, policy %s)",
			k.Name(), label, g.NumVertices(), g.NumEdges(), sys.Topology().MemoryNodes, sys.Partitioner().Name(), sys.Policy().Name()),
		"Architecture", "Iterations", "Moved", "Sync events", "Est time (ms)", "Energy (mJ)", "Offload OK")
	for _, run := range runs {
		t.AddRow(run.Engine, run.Iterations, graph.FormatBytes(run.TotalDataMovementBytes),
			run.TotalSyncEvents, run.TotalSeconds*1e3, run.TotalEnergyJoules*1e3, run.OffloadSupported)
		if perIter {
			it := metrics.NewTable("per-iteration ledger — "+run.Engine,
				"Iter", "Frontier", "Edges", "Offloaded", "Moved", "Updates", "Writeback")
			for _, rec := range run.Records {
				it.AddRow(rec.Iteration, rec.FrontierSize, rec.ActiveEdges, rec.Offloaded,
					graph.FormatBytes(rec.DataMovementBytes), rec.PartialUpdates, graph.FormatBytes(rec.WritebackBytes))
			}
			if err := it.Render(w); err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return nil, err
			}
		}
		if run.OffloadNote != "" && w != io.Discard { // -store-verify's silent re-run repeats no note
			fmt.Fprintf(os.Stderr, "note: %s\n", run.OffloadNote)
		}
		if iterCSV != "" {
			if err := gio.WriteFileAtomic(iterCSV, func(w io.Writer) error { return sim.WriteRecordsCSV(w, run.Records) }); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "wrote per-iteration ledger to %s\n", iterCSV)
		}
	}
	return runs, render(w, t, csv)
}

// runSerialEngine executes the kernel on the in-process engine with the
// spec's direction and worker pool and prints the direction/inspection
// telemetry the hybrid traversal exists for.
func runSerialEngine(ctx context.Context, w io.Writer, src kernels.Source, k kernels.Kernel, label string, spec core.Spec, csv bool) ([]*core.Result, error) {
	dir, err := kernels.ParseDirection(spec.Direction)
	if err != nil {
		return nil, err
	}
	opt := kernels.Options{Workers: spec.Workers, Direction: dir}
	res, err := kernels.RunOn(ctx, src, k, kernels.Staged, opt)
	if err != nil {
		return nil, err
	}
	var nominal int64
	for _, e := range res.ActiveEdges {
		nominal += e
	}
	g := src.Vertices()
	t := metrics.NewTable(
		fmt.Sprintf("%s on %s (V=%d E=%d, kernel engine, direction %s, workers=%d)",
			k.Name(), label, g.NumVertices(), g.NumEdges(), opt.Direction, opt.Workers),
		"Iterations", "Converged", "Push iters", "Pull iters", "Frontier edges", "Edges inspected")
	t.AddRow(res.Iterations, res.Converged, res.PushIterations, res.PullIterations, nominal, res.EdgesInspected)
	return []*core.Result{core.FromSerial(k.Name(), res)}, render(w, t, csv)
}

// runStore reads the graph straight from a gcsr2 container: the run the
// flags select pins edges through the store's segment tier (the "local
// memory" tier) instead of an in-RAM CSR, and a second table reports the
// tier traffic the budget produced. With -store-verify the container is
// also materialized and the run repeated on it silently; the two must
// agree bit for bit.
func (o *flags) runStore(ctx context.Context, spec core.Spec, w io.Writer) error {
	st, err := store.OpenFile(o.storePath, store.Options{LocalBytes: o.storeMem})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	digest, err := st.Digest()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "container %s: V=%d E=%d segments=%d digest %s\n",
		o.storePath, st.NumVertices(), st.NumEdges(), st.NumSegments(), digest)
	runs, err := o.execute(ctx, spec, st, o.storePath, w)
	if err != nil {
		return err
	}
	stats := st.Stats()
	t := metrics.NewTable(fmt.Sprintf("tier traffic of %s (budget %s)", o.storePath, formatBudget(o.storeMem)),
		"Seg hits", "Seg misses", "Read-throughs", "Far-memory", "Peak resident")
	t.AddRow(stats.Hits, stats.Misses, stats.ReadThroughs, graph.FormatBytes(stats.FarBytes), graph.FormatBytes(stats.PeakResidentBytes))
	if err := render(w, t, o.csv); err != nil || !o.storeVerify {
		return err
	}
	g, err := st.Materialize()
	if err != nil {
		return err
	}
	ref := *o
	ref.perIter, ref.iterCSV = false, ""
	want, err := ref.execute(ctx, spec, g, o.storePath, io.Discard)
	if err != nil {
		return err
	}
	for i, run := range runs {
		got, exp := *run, *want[i]
		got.Values, exp.Values = nil, nil
		if err := verify.ValuesBitEqual(run.Values, want[i].Values); err != nil || !reflect.DeepEqual(got, exp) {
			return fmt.Errorf("store-verify: %s diverged from the in-memory run (values: %v)", run.Engine, err)
		}
	}
	fmt.Fprintf(os.Stderr, "store-verify: out-of-core run is bit-identical to the in-memory run (%d vertices)\n", g.NumVertices())
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
func runServed(ctx context.Context, g *graph.Graph, gf cliconf.GraphFlags, spec core.Spec,
	serverURL, tenant, snapName string, csv bool) error {
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

	info, err := c.Submit(ctx, serve.JobSpecFor(snapName, spec))
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
	return render(os.Stdout, t, csv)
}

// runCluster executes the kernel on the system's concurrent actor
// cluster and reports the measured traffic plus the fault/recovery
// counters.
func runCluster(ctx context.Context, w io.Writer, src kernels.Source, k kernels.Kernel, sys *core.System, csv bool) ([]*core.Result, error) {
	out, err := sys.ConcurrentEngine().Run(ctx, src, k, core.RunConfig{})
	if err != nil {
		return nil, err
	}
	g := src.Vertices()
	t := metrics.NewTable(
		fmt.Sprintf("%s on concurrent cluster (V=%d E=%d, %d memory nodes, %d compute nodes)",
			k.Name(), g.NumVertices(), g.NumEdges(), sys.Topology().MemoryNodes, sys.Topology().ComputeNodes),
		"Iterations", "Converged", "Mem->Switch", "Switch->Compute", "Writeback", "Total moved")
	t.AddRow(out.Iterations, out.Converged,
		graph.FormatBytes(out.Traffic.MemToSwitch),
		graph.FormatBytes(out.Traffic.SwitchToCompute),
		graph.FormatBytes(out.Traffic.Writeback),
		graph.FormatBytes(out.Traffic.Total()))
	if err := render(w, t, csv); err != nil {
		return nil, err
	}
	ft := metrics.NewTable("fault injection and recovery",
		"Drops", "Duplicates", "Delays", "Retries", "Acks", "Crashes", "Redispatches", "Virtual ticks")
	f := out.Faults
	ft.AddRow(f.Drops, f.Duplicates, f.Delays, f.Retries, f.Acks, f.Crashes, f.Redispatches, f.VirtualTicks)
	return []*core.Result{out}, render(w, ft, csv)
}

// render prints t to w as a table, or as CSV.
func render(w io.Writer, t *metrics.Table, csv bool) error {
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndprun: %v\n", err)
	os.Exit(1)
}
