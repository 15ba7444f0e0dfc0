package verify

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
)

// Failure is a check violation, tagged with the oracle family that
// tripped so reports (and the mutation-smoke test) can tell *which*
// property broke, not just that one did.
type Failure struct {
	Oracle string
	Err    error
}

func (f *Failure) Error() string { return fmt.Sprintf("%s: %v", f.Oracle, f.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (f *Failure) Unwrap() error { return f.Err }

// Oracle families, used as Failure tags.
const (
	OraclePartition     = "partition"
	OracleArchDiff      = "arch-differential"
	OracleSerialDiff    = "serial-differential"
	OracleWorkerDiff    = "worker-differential"
	OracleDirectionDiff = "direction-differential"
	OracleRecords       = "record-invariants"
	OracleAggregation   = "aggregation-model"
	OracleMonotone      = "monotone-convergence"
	OracleCluster       = "cluster-differential"
	OracleConservation  = "flow-conservation"
	OracleFaults        = "fault-recovery"
	OracleTraffic       = "traffic-cross-validation"
)

func failf(oracle, format string, args ...interface{}) error {
	return &Failure{Oracle: oracle, Err: fmt.Errorf(format, args...)}
}

// Check materializes the scenario and runs every oracle against it. A
// nil return means all properties held; a *Failure pinpoints the first
// violated one; any other error is an infrastructure problem (the
// scenario could not even be built or executed).
func Check(sc Scenario) error {
	sys, err := sc.system()
	if err != nil {
		return err
	}
	g, err := sc.BuildGraph()
	if err != nil {
		return err
	}
	// Fresh kernel per run: stateful kernels keep per-run side state in
	// the kernel value, and even stateless ones are cheap to re-make.
	// The name is resolved once here so the closure's lookup cannot fail.
	if _, err := kernels.ByName(sc.Kernel); err != nil {
		return err
	}
	fresh := func() kernels.Kernel {
		k, _ := kernels.ByName(sc.Kernel)
		return k
	}
	traits := fresh().Traits()
	if err := kernels.CheckGraph(g, fresh()); err != nil {
		return err
	}

	assign, err := sys.Partition(g)
	if err != nil {
		return err
	}
	if err := checkPartition(g, assign, sc); err != nil {
		return err
	}

	serial, err := kernels.RunSerial(g, fresh())
	if err != nil {
		return err
	}
	if err := checkSerialResult(g, serial, traits, sc, fresh); err != nil {
		return err
	}
	if err := checkDirectionDifferential(g, fresh, sc); err != nil {
		return err
	}
	data, err := store.EncodeGraph(g, storeSegmentBytes)
	if err != nil {
		return failf(OracleStoreDiff, "encode container: %v", err)
	}
	if err := checkStore(g, data, fresh); err != nil {
		return err
	}

	runs, err := sys.Compare(context.Background(), g, fresh())
	if err != nil {
		return err
	}
	if err := checkSerialDifferential(runs, serial, traits); err != nil {
		return err
	}
	if err := checkArchDifferential(data, sys, fresh, assign, runs); err != nil {
		return err
	}
	for _, run := range runs {
		if err := checkRecords(run, sc); err != nil {
			return err
		}
		if err := checkResultShape(run, traits); err != nil {
			return err
		}
	}
	if err := checkWorkerDifferential(g, fresh, assign, sys, sc); err != nil {
		return err
	}

	if sc.Cluster {
		if err := checkCluster(g, fresh, assign, serial, traits, sc); err != nil {
			return err
		}
	}
	return nil
}

// checkPartition enforces partition validity: every vertex assigned to
// exactly one of K parts, plus the per-strategy balance contracts.
func checkPartition(g *graph.Graph, a *partition.Assignment, sc Scenario) error {
	if err := a.Validate(g); err != nil {
		return failf(OraclePartition, "%s: %v", sc.Partitioner, err)
	}
	if a.K != sc.Partitions {
		return failf(OraclePartition, "%s: K=%d, scenario asked for %d", sc.Partitioner, a.K, sc.Partitions)
	}
	sizes := a.Sizes()
	var total int64
	minSz, maxSz := int64(math.MaxInt64), int64(0)
	for _, s := range sizes {
		total += s
		if s < minSz {
			minSz = s
		}
		if s > maxSz {
			maxSz = s
		}
	}
	n := int64(g.NumVertices())
	if total != n {
		return failf(OraclePartition, "%s: part sizes sum to %d, graph has %d vertices", sc.Partitioner, total, n)
	}
	switch sc.Partitioner {
	case "range":
		// Range promises near-equal vertex counts.
		if maxSz-minSz > 1 {
			return failf(OraclePartition, "range: part sizes differ by %d (>1): min %d max %d", maxSz-minSz, minSz, maxSz)
		}
	case "multilevel":
		// Balance is only promised when parts are meaningfully larger
		// than the refinement granularity.
		if n >= int64(16*sc.Partitions) {
			if minSz == 0 {
				return failf(OraclePartition, "multilevel: empty part with n=%d k=%d", n, sc.Partitions)
			}
			q := partition.Evaluate(g, a)
			if q.VertexImbalance > 1.5 {
				return failf(OraclePartition, "multilevel: vertex imbalance %.3f > 1.5 with n=%d k=%d", q.VertexImbalance, n, sc.Partitions)
			}
		}
	}
	return nil
}

// checkSerialResult enforces the kernel-semantics invariants on the
// serial reference itself: monotone value movement for min/max lattices,
// convergence for frontier kernels, and the one-activation frontier
// bound for single-shot traversals.
func checkSerialResult(g *graph.Graph, r *kernels.Result, traits kernels.Traits, sc Scenario, fresh func() kernels.Kernel) error {
	n := g.NumVertices()
	if len(r.Values) != n {
		return failf(OracleMonotone, "serial %s: %d values for %d vertices", sc.Kernel, len(r.Values), n)
	}
	if mustConverge(traits) && !r.Converged {
		return failf(OracleMonotone, "serial %s: frontier kernel did not converge in %d iterations", sc.Kernel, r.Iterations)
	}
	// Min/max lattice kernels only ever move values toward the operator:
	// final <= initial under AggMin, final >= initial under AggMax.
	if traits.Agg == kernels.AggMin || traits.Agg == kernels.AggMax {
		k := fresh()
		for v := 0; v < n; v++ {
			init := k.InitialValue(g, graph.VertexID(v))
			final := r.Values[v]
			if traits.Agg == kernels.AggMin && final > init {
				return failf(OracleMonotone, "serial %s: vertex %d rose %v -> %v under a min lattice", sc.Kernel, v, init, final)
			}
			if traits.Agg == kernels.AggMax && final < init {
				return failf(OracleMonotone, "serial %s: vertex %d fell %v -> %v under a max lattice", sc.Kernel, v, init, final)
			}
		}
	}
	// Single-shot traversals activate each vertex at most once, so the
	// frontier sizes cannot sum past the vertex count.
	if sc.Kernel == "bfs" || sc.Kernel == "reach" {
		var totalActive int64
		for _, f := range r.FrontierSizes {
			totalActive += f
		}
		if totalActive > int64(n) {
			return failf(OracleMonotone, "serial %s: frontier sizes sum to %d > %d vertices", sc.Kernel, totalActive, n)
		}
	}
	return nil
}

// checkSerialDifferential holds the four architectures' shared
// execution to the serial engine: the same iterations and frontier
// series, and the same values (exactly for lattice kernels, within
// float-reassociation tolerance for sum kernels).
func checkSerialDifferential(runs []*core.Result, serial *kernels.Result, traits kernels.Traits) error {
	for _, run := range runs {
		if run.Iterations != serial.Iterations {
			return failf(OracleSerialDiff, "%s ran %d iterations, serial ran %d",
				run.Engine, run.Iterations, serial.Iterations)
		}
		if !slices.Equal(frontierSizes(run), serial.FrontierSizes) {
			return failf(OracleSerialDiff, "%s: frontier size series differs from serial", run.Engine)
		}
		if err := valuesClose(run.Values, serial.Values, tolFor(traits)); err != nil {
			return failf(OracleSerialDiff, "%s vs serial: %v", run.Engine, err)
		}
	}
	return nil
}

// checkArchDifferential is oracle (a): each architecture reads the graph
// through one seam, so on the scenario's container, read at the
// thrashing budget and priced over the scenario's own assignment, it
// must report exactly what it reported on the in-RAM graph — values bit
// for bit, every record and every total — and leave no pin behind.
func checkArchDifferential(data []byte, sys *core.System, fresh func() kernels.Kernel, assign *partition.Assignment, want []*core.Result) error {
	st, err := store.OpenBytes(data, store.Options{LocalBytes: 2 * storeSegmentBytes})
	if err != nil {
		return failf(OracleArchDiff, "open container: %v", err)
	}
	got, err := sys.CompareWithAssignment(context.Background(), st, fresh(), assign)
	if pins, cerr := st.Stats().Pins, st.Close(); err != nil || pins != 0 || cerr != nil {
		return failf(OracleArchDiff, "on the container: %v (%d pins left, close: %v)", err, pins, cerr)
	}
	for i, run := range got {
		g, w := *run, *want[i]
		if err := ValuesBitEqual(g.Values, w.Values); err != nil {
			return failf(OracleArchDiff, "%s on the container: %v", run.Engine, err)
		}
		g.Values, w.Values = nil, nil
		if !reflect.DeepEqual(g, w) {
			return failf(OracleArchDiff, "%s on the container: records or totals differ from the graph's", run.Engine)
		}
	}
	return nil
}

// frontierSizes is an analytical run's per-iteration frontier series,
// read from its accounting records.
func frontierSizes(run *core.Result) []int64 {
	sizes := make([]int64, len(run.Records))
	for i := range run.Records {
		sizes[i] = run.Records[i].FrontierSize
	}
	return sizes
}

// checkDirectionDifferential enforces the kernel engine's pull-soundness
// contract on pull-capable kernels: forced pull, forced push, and the
// auto hybrid must agree bit-exactly on values and on every shared
// telemetry field, auto must inspect no more edges than push, and the
// staged machine must be bit-identical across worker counts in both
// directions. Kernels without a GatherKernel
// implementation have a single direction and are skipped.
func checkDirectionDifferential(g *graph.Graph, fresh func() kernels.Kernel, sc Scenario) error {
	if _, ok := fresh().(kernels.GatherKernel); !ok {
		return nil
	}
	push, err := kernels.RunSerialWith(g, fresh(), kernels.Options{Direction: kernels.DirectionPush})
	if err != nil {
		return err
	}
	for _, dir := range []kernels.Direction{kernels.DirectionPull, kernels.DirectionAuto} {
		got, err := kernels.RunSerialWith(g, fresh(), kernels.Options{Direction: dir})
		if err != nil {
			return err
		}
		if err := ValuesBitEqual(got.Values, push.Values); err != nil {
			return failf(OracleDirectionDiff, "%s %s vs push: %v", sc.Kernel, dir, err)
		}
		if got.Iterations != push.Iterations || got.Converged != push.Converged {
			return failf(OracleDirectionDiff, "%s %s: %d iterations (converged=%v), push %d (%v)",
				sc.Kernel, dir, got.Iterations, got.Converged, push.Iterations, push.Converged)
		}
		if !reflect.DeepEqual(got.FrontierSizes, push.FrontierSizes) ||
			!reflect.DeepEqual(got.ActiveEdges, push.ActiveEdges) {
			return failf(OracleDirectionDiff, "%s %s: frontier/edge trajectory differs from push", sc.Kernel, dir)
		}
		// The auto switch pulls only where that provably inspects fewer
		// edges than the push it replaces.
		if dir == kernels.DirectionAuto && got.EdgesInspected > push.EdgesInspected {
			return failf(OracleDirectionDiff, "%s auto inspected %d edges over %d pull iterations, push inspects %d",
				sc.Kernel, got.EdgesInspected, got.PullIterations, push.EdgesInspected)
		}
	}
	for _, dir := range []kernels.Direction{kernels.DirectionPush, kernels.DirectionPull} {
		one, err := kernels.Run(g, fresh(), kernels.Options{Workers: 1, Direction: dir})
		if err != nil {
			return err
		}
		many, err := kernels.Run(g, fresh(), kernels.Options{Workers: sc.Workers, Direction: dir})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(many, one) {
			return failf(OracleDirectionDiff, "%s %s: staged engine differs between workers=1 and workers=%d",
				sc.Kernel, dir, sc.Workers)
		}
	}
	return nil
}

// checkWorkerDifferential re-runs the paper architecture serially
// (Workers=1) and with the scenario's worker pool: the staged-reduction
// design promises bit-identical results and accounting regardless of
// parallelism.
func checkWorkerDifferential(g *graph.Graph, fresh func() kernels.Kernel, assign *partition.Assignment, sys *core.System, sc Scenario) error {
	if sc.Workers == 1 {
		return nil // Compare already ran at Workers=1; nothing to diff
	}
	mk := func(workers int) (*sim.Run, error) {
		t, err := sim.Execute(context.Background(), g, fresh(), sim.ExecConfig{Assign: assign, Workers: workers})
		if err != nil {
			return nil, err
		}
		return (&sim.DisaggregatedNDP{Topo: sys.Topology(), InNetworkAggregation: sc.Aggregation}).Price(t)
	}
	one, err := mk(1)
	if err != nil {
		return err
	}
	many, err := mk(sc.Workers)
	if err != nil {
		return err
	}
	if err := ValuesBitEqual(many.Result.Values, one.Result.Values); err != nil {
		return failf(OracleWorkerDiff, "workers=%d vs workers=1: %v", sc.Workers, err)
	}
	if !reflect.DeepEqual(many.Result, one.Result) {
		return failf(OracleWorkerDiff, "workers=%d vs workers=1: results differ beyond values", sc.Workers)
	}
	if !reflect.DeepEqual(many.Records, one.Records) {
		return failf(OracleWorkerDiff, "workers=%d vs workers=1: per-iteration accounting differs", sc.Workers)
	}
	return nil
}

// checkRecords enforces the paper's per-iteration accounting identities
// on one run, and — for the paper architecture — re-derives the
// switch-buffer aggregation model independently of internal/sim, so a
// bug reintroduced there cannot hide (the mutation-smoke test leans on
// exactly this).
func checkRecords(run *core.Result, sc Scenario) error {
	ndp := strings.HasPrefix(run.Engine, "disaggregated-ndp")
	for _, rec := range run.Records {
		it := rec.Iteration
		if rec.FrontierSize <= 0 {
			return failf(OracleRecords, "%s it%d: empty frontier recorded", run.Engine, it)
		}
		if rec.DistinctDsts > rec.PartialUpdates || rec.PartialUpdates > rec.ActiveEdges {
			return failf(OracleRecords, "%s it%d: want DistinctDsts <= PartialUpdates <= ActiveEdges, got %d, %d, %d",
				run.Engine, it, rec.DistinctDsts, rec.PartialUpdates, rec.ActiveEdges)
		}
		if rec.EdgeFetchBytes != rec.ActiveEdges*kernels.EdgeBytes {
			return failf(OracleRecords, "%s it%d: EdgeFetchBytes %d != ActiveEdges %d x %d",
				run.Engine, it, rec.EdgeFetchBytes, rec.ActiveEdges, kernels.EdgeBytes)
		}
		if rec.UpdateMoveBytes != rec.PartialUpdates*kernels.UpdateBytes {
			return failf(OracleRecords, "%s it%d: UpdateMoveBytes %d != PartialUpdates %d x %d",
				run.Engine, it, rec.UpdateMoveBytes, rec.PartialUpdates, kernels.UpdateBytes)
		}
		if rec.WritebackBytes != rec.NextFrontierSize*kernels.PropertyBytes {
			return failf(OracleRecords, "%s it%d: WritebackBytes %d != NextFrontierSize %d x %d",
				run.Engine, it, rec.WritebackBytes, rec.NextFrontierSize, kernels.PropertyBytes)
		}
		if len(rec.PerPartition) != sc.Partitions {
			return failf(OracleRecords, "%s it%d: %d per-partition records for %d memory nodes",
				run.Engine, it, len(rec.PerPartition), sc.Partitions)
		}
		var edgeBytes, partials int64
		anyOffloaded := false
		for _, p := range rec.PerPartition {
			edgeBytes += p.EdgeBytes
			partials += p.PartialUpdates
			anyOffloaded = anyOffloaded || p.Offloaded
		}
		if edgeBytes != rec.EdgeFetchBytes {
			return failf(OracleRecords, "%s it%d: per-partition edge bytes sum %d != total %d",
				run.Engine, it, edgeBytes, rec.EdgeFetchBytes)
		}
		if partials != rec.PartialUpdates {
			return failf(OracleRecords, "%s it%d: per-partition partial updates sum %d != total %d",
				run.Engine, it, partials, rec.PartialUpdates)
		}
		// An iteration offloaded exactly when one of its memory nodes did.
		if rec.Offloaded != anyOffloaded {
			return failf(OracleRecords, "%s it%d: Offloaded %v, any memory node offloaded %v",
				run.Engine, it, rec.Offloaded, anyOffloaded)
		}
		// Aggregation can only shrink the update stream, never grow it,
		// and its floor is one update per touched destination.
		if rec.AggregatedMoveBytes > rec.UpdateMoveBytes {
			return failf(OracleAggregation, "%s it%d: aggregation increased bytes: %d > %d",
				run.Engine, it, rec.AggregatedMoveBytes, rec.UpdateMoveBytes)
		}
		if ndp {
			want := expectedAggregatedMoveBytes(rec.PartialUpdates, rec.DistinctDsts, sc.SwitchBufferEntries)
			if rec.AggregatedMoveBytes != want {
				return failf(OracleAggregation,
					"%s it%d: AggregatedMoveBytes %d, buffer model says %d (partials %d, distinct %d, buffer %d)",
					run.Engine, it, rec.AggregatedMoveBytes, want,
					rec.PartialUpdates, rec.DistinctDsts, sc.SwitchBufferEntries)
			}
		}
	}
	return nil
}

// expectedAggregatedMoveBytes is the harness's own rendering of the
// documented switch-buffer model (DESIGN.md "Bounded switch buffers"):
// with entries for every destination the stream compresses to one update
// per distinct destination; a bounded buffer passes the overflow
// destinations through at their mean multiplicity, rounded half-up and
// clamped to [bufferEntries, PartialUpdates]. Deliberately written here
// from the prose, not shared with internal/sim, so the two
// implementations check each other.
func expectedAggregatedMoveBytes(partialUpdates, distinctDsts, bufferEntries int64) int64 {
	if distinctDsts == 0 {
		return 0
	}
	if bufferEntries <= 0 || distinctDsts <= bufferEntries {
		return distinctDsts * kernels.UpdateBytes
	}
	mean := float64(partialUpdates) / float64(distinctDsts)
	passThrough := float64(distinctDsts-bufferEntries) * mean
	entries := bufferEntries + int64(math.Floor(passThrough+0.5))
	if entries < bufferEntries {
		entries = bufferEntries
	}
	if entries > partialUpdates {
		entries = partialUpdates
	}
	return entries * kernels.UpdateBytes
}

// checkResultShape applies the kernel-semantics invariants to an
// engine's result (same properties checkSerialResult establishes for the
// reference; cheap to re-assert directly rather than only by transitive
// equality).
func checkResultShape(run *core.Result, traits kernels.Traits) error {
	if mustConverge(traits) && !run.Converged {
		return failf(OracleMonotone, "%s: frontier kernel did not converge in %d iterations", run.Engine, run.Iterations)
	}
	if len(run.Records) != run.Iterations {
		return failf(OracleRecords, "%s: %d records for %d iterations", run.Engine, len(run.Records), run.Iterations)
	}
	return nil
}

// checkCluster runs the concurrent actor implementation fault-free and
// (when the scenario carries a plan) faulted, enforcing oracle (a)'s
// remaining differentials — cluster vs serial, faulted vs fault-free
// bit-identical — plus flow conservation, fault/recovery accounting,
// and the traffic cross-validation against the analytical simulator.
func checkCluster(g *graph.Graph, fresh func() kernels.Kernel, assign *partition.Assignment, serial *kernels.Result, traits kernels.Traits, sc Scenario) error {
	spec := sc.spec()
	sysFault, err := spec.System()
	if err != nil {
		return err
	}
	spec.Fault = cluster.FaultPlan{}
	sysFree, err := spec.System()
	if err != nil {
		return err
	}
	free, err := sysFree.ConcurrentEngine().Run(context.Background(), g, fresh(), core.RunConfig{Assignment: assign})
	if err != nil {
		return err
	}

	if err := valuesClose(free.Values, serial.Values, tolFor(traits)); err != nil {
		return failf(OracleCluster, "fault-free cluster vs serial: %v", err)
	}
	if free.Iterations != serial.Iterations {
		return failf(OracleCluster, "fault-free cluster ran %d iterations, serial ran %d", free.Iterations, serial.Iterations)
	}
	if mustConverge(traits) && !free.Converged {
		return failf(OracleCluster, "fault-free cluster: frontier kernel did not converge")
	}
	if err := checkConservation(free, "fault-free"); err != nil {
		return err
	}
	if err := checkSwitchLevels(free, sc.Aggregation, "fault-free"); err != nil {
		return err
	}
	if err := checkFaultFreeStats(free); err != nil {
		return err
	}
	if sc.SwitchBufferEntries == 0 {
		if err := checkTrafficAgainstSim(g, fresh, assign, sysFree, free, traits, sc); err != nil {
			return err
		}
	}

	if sc.Fault.Empty() {
		return nil
	}
	faulted, err := sysFault.ConcurrentEngine().Run(context.Background(), g, fresh(), core.RunConfig{Assignment: assign})
	if err != nil {
		return err
	}

	// The reliability protocol must make every injected fault invisible
	// to the computation: values bit-identical, same iteration count.
	if err := ValuesBitEqual(faulted.Values, free.Values); err != nil {
		return failf(OracleFaults, "faulted vs fault-free: %v", err)
	}
	if faulted.Iterations != free.Iterations || faulted.Converged != free.Converged {
		return failf(OracleFaults, "faulted run: %d iterations converged=%v, fault-free: %d converged=%v",
			faulted.Iterations, faulted.Converged, free.Iterations, free.Converged)
	}
	// Conservation holds under faults too: both ends of every link count
	// per delivered copy, so drops (never delivered) and duplicates
	// (delivered twice, counted twice on both sides) cancel out.
	if err := checkConservation(faulted, "faulted"); err != nil {
		return err
	}
	return checkFaultStats(faulted, sc)
}

// checkConservation is the data-movement conservation oracle: for every
// link class, bytes counted at the senders equal bytes counted at the
// receivers, and the per-level chain through the switch tree is
// gap-free. Holds exactly even under injected faults (see Outcome
// docs on the counting discipline).
func checkConservation(out *core.Result, tag string) error {
	memSent := out.Counter(cluster.CounterMemSentBytes)
	compRecv := out.Counter(cluster.CounterComputeRecvBytes)
	wbRecv := out.Counter(cluster.CounterWritebackRecvBytes)
	if memSent != out.Traffic.MemToSwitch {
		return failf(OracleConservation, "%s: memory nodes sent %d B, leaf switches received %d B", tag, memSent, out.Traffic.MemToSwitch)
	}
	if len(out.LevelBytesIn) != len(out.LevelBytes) || len(out.LevelBytes) == 0 {
		return failf(OracleConservation, "%s: malformed level series: %d in, %d out", tag, len(out.LevelBytesIn), len(out.LevelBytes))
	}
	if out.LevelBytesIn[0] != out.Traffic.MemToSwitch {
		return failf(OracleConservation, "%s: level 0 received %d B, MemToSwitch says %d B", tag, out.LevelBytesIn[0], out.Traffic.MemToSwitch)
	}
	for l := 0; l+1 < len(out.LevelBytes); l++ {
		if out.LevelBytes[l] != out.LevelBytesIn[l+1] {
			return failf(OracleConservation, "%s: level %d sent %d B, level %d received %d B",
				tag, l, out.LevelBytes[l], l+1, out.LevelBytesIn[l+1])
		}
	}
	last := len(out.LevelBytes) - 1
	if out.LevelBytes[last] != out.Traffic.SwitchToCompute {
		return failf(OracleConservation, "%s: root sent %d B, SwitchToCompute says %d B", tag, out.LevelBytes[last], out.Traffic.SwitchToCompute)
	}
	if compRecv != out.Traffic.SwitchToCompute {
		return failf(OracleConservation, "%s: root sent %d B, compute nodes received %d B", tag, out.Traffic.SwitchToCompute, compRecv)
	}
	if wbRecv != out.Traffic.Writeback {
		return failf(OracleConservation, "%s: compute nodes wrote back %d B, memory nodes received %d B", tag, out.Traffic.Writeback, wbRecv)
	}
	return nil
}

// checkSwitchLevels enforces the aggregation byte bound level by level
// on a fault-free run: without aggregation every switch forwards exactly
// what it received; with it, no level may emit more than it ingested,
// and the end-to-end delivery may not exceed what the pool sent.
// Only meaningful fault-free — injected duplicates inflate receive
// counts asymmetrically.
func checkSwitchLevels(out *core.Result, aggregation bool, tag string) error {
	for l := range out.LevelBytes {
		in, outB := out.LevelBytesIn[l], out.LevelBytes[l]
		if aggregation && outB > in {
			return failf(OracleAggregation, "%s: switch level %d emitted %d B > received %d B", tag, l, outB, in)
		}
		if !aggregation && outB != in {
			return failf(OracleAggregation, "%s: switch level %d emitted %d B, received %d B without aggregation", tag, l, outB, in)
		}
	}
	if aggregation {
		if out.Traffic.SwitchToCompute > out.Traffic.MemToSwitch {
			return failf(OracleAggregation, "%s: aggregation increased delivery: %d B delivered > %d B sent",
				tag, out.Traffic.SwitchToCompute, out.Traffic.MemToSwitch)
		}
	} else if out.Traffic.SwitchToCompute != out.Traffic.MemToSwitch {
		return failf(OracleAggregation, "%s: pass-through tree altered traffic: %d B delivered, %d B sent",
			tag, out.Traffic.SwitchToCompute, out.Traffic.MemToSwitch)
	}
	return nil
}

// checkFaultFreeStats requires a run with the zero fault plan to report
// zero injected faults and zero recovery work — anything else means the
// injector leaked into the clean path.
func checkFaultFreeStats(out *core.Result) error {
	f := out.Faults
	if f.Drops != 0 || f.Duplicates != 0 || f.Delays != 0 || f.Retries != 0 || f.Crashes != 0 || f.Redispatches != 0 {
		return failf(OracleFaults, "fault-free run reported faults: %+v", f)
	}
	if f.Acks <= 0 {
		return failf(OracleFaults, "fault-free run acknowledged no deliveries")
	}
	return nil
}

// checkFaultStats enforces the fault-accounting invariants on a faulted
// run: every drop is retried, crashes fire exactly per schedule, and
// every crash triggers at least one partition re-dispatch.
func checkFaultStats(out *core.Result, sc Scenario) error {
	f := out.Faults
	if f.Drops != f.Retries {
		return failf(OracleFaults, "faulted run: %d drops but %d retries", f.Drops, f.Retries)
	}
	var wantCrashes int64
	for _, ev := range sc.Fault.Crashes {
		if ev.Iteration < out.Iterations {
			wantCrashes++
		}
	}
	if f.Crashes != wantCrashes {
		return failf(OracleFaults, "faulted run: %d crashes, schedule had %d within %d iterations",
			f.Crashes, wantCrashes, out.Iterations)
	}
	if f.Crashes > 0 && f.Redispatches < f.Crashes {
		return failf(OracleFaults, "faulted run: %d crashes but only %d re-dispatches", f.Crashes, f.Redispatches)
	}
	if f.Crashes == 0 && f.Redispatches != 0 {
		return failf(OracleFaults, "faulted run: %d re-dispatches without a crash", f.Redispatches)
	}
	if f.Acks <= 0 {
		return failf(OracleFaults, "faulted run acknowledged no deliveries")
	}
	return nil
}

// checkTrafficAgainstSim is the cross-validation oracle: the bytes the
// actor implementation actually sent must equal, iteration by iteration,
// the bytes the analytical simulator accounts for the same architecture.
// Only applies with an unbounded switch buffer — the cluster switch
// deduplicates fully, which is the simulator's SwitchBufferEntries=0
// model — and the cluster always offloads, so the simulator runs under
// AlwaysOffload.
func checkTrafficAgainstSim(g *graph.Graph, fresh func() kernels.Kernel, assign *partition.Assignment, sys *core.System, out *core.Result, traits kernels.Traits, sc Scenario) error {
	t, err := sim.Execute(context.Background(), g, fresh(), sim.ExecConfig{Assign: assign, Workers: sc.Workers})
	if err != nil {
		return err
	}
	run, err := (&sim.DisaggregatedNDP{
		Topo:                 sys.Topology(),
		Policy:               sim.AlwaysOffload{},
		InNetworkAggregation: sc.Aggregation,
	}).Price(t)
	if err != nil {
		return err
	}
	if len(out.PerIteration) != len(run.Records) {
		return failf(OracleTraffic, "cluster ran %d iterations, simulator accounted %d", len(out.PerIteration), len(run.Records))
	}
	// Known model difference, deliberately excluded from the write-back
	// equality: when a fixed-point kernel converges on the epsilon
	// residual, the simulator elides the final iteration's write-back
	// (nothing in the run will read it), while the cluster completes the
	// bulk-synchronous iteration and pushes the refreshed properties to
	// the pool. Traversal-side traffic must still match on that
	// iteration; the write-back is only bounded. The elision is
	// self-identifying in the record: a fixed-point kernel's next
	// frontier is the full vertex set every iteration except the epsilon
	// break, which leaves it empty.
	epsilonFinal := func(i int, rec sim.Record) bool {
		return traits.AllVerticesActive && i == len(out.PerIteration)-1 &&
			rec.NextFrontierSize == 0
	}
	for i, tr := range out.PerIteration {
		rec := run.Records[i]
		if tr.MemToSwitch != rec.UpdateMoveBytes {
			return failf(OracleTraffic, "it%d: cluster mem->switch %d B, sim UpdateMoveBytes %d B", i, tr.MemToSwitch, rec.UpdateMoveBytes)
		}
		wantDeliver := rec.UpdateMoveBytes
		if sc.Aggregation {
			wantDeliver = rec.AggregatedMoveBytes
		}
		if tr.SwitchToCompute != wantDeliver {
			return failf(OracleTraffic, "it%d: cluster switch->compute %d B, sim %d B", i, tr.SwitchToCompute, wantDeliver)
		}
		if epsilonFinal(i, rec) {
			if max := int64(g.NumVertices()) * kernels.PropertyBytes; tr.Writeback > max {
				return failf(OracleTraffic, "it%d: cluster convergence write-back %d B exceeds full property set %d B", i, tr.Writeback, max)
			}
			continue
		}
		if tr.Writeback != rec.WritebackBytes {
			return failf(OracleTraffic, "it%d: cluster writeback %d B, sim %d B", i, tr.Writeback, rec.WritebackBytes)
		}
		if tr.Total() != rec.DataMovementBytes {
			return failf(OracleTraffic, "it%d: cluster boundary total %d B, sim headline %d B", i, tr.Total(), rec.DataMovementBytes)
		}
	}
	return nil
}

// mustConverge reports whether non-convergence is a bug for this
// kernel. Fixed-point kernels may legitimately exhaust their iteration
// budget, and single-sweep kernels (indegree, MaxIterations=1)
// terminate *by* the budget; but a frontier kernel with a generous
// safety budget must drain its frontier on any scenario-sized graph.
func mustConverge(traits kernels.Traits) bool {
	return !traits.AllVerticesActive && traits.MaxIterations > 1000
}

// tolFor returns the value-comparison tolerance against the serial
// reference: sum kernels reassociate float additions across partitions,
// everything else must match exactly.
func tolFor(traits kernels.Traits) float64 {
	if traits.Agg == kernels.AggSum {
		return 1e-9
	}
	return 0
}

// ValuesBitEqual requires two value vectors to have one length and agree
// bit for bit: +0 and -0 differ, and so do NaNs with different payloads.
func ValuesBitEqual(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("vertex %d: %v (0x%016x) vs %v (0x%016x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// valuesClose compares against the serial reference within tol.
// Infinities (unreachable vertices in path kernels) must match by sign.
func valuesClose(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			if a == b {
				continue
			}
			return fmt.Errorf("vertex %d: %v vs %v", i, a, b)
		}
		if tol == 0 {
			if a != b {
				return fmt.Errorf("vertex %d: %v vs %v", i, a, b)
			}
			continue
		}
		if math.Abs(a-b) > tol {
			return fmt.Errorf("vertex %d: %v vs %v (|diff| %g > %g)", i, a, b, math.Abs(a-b), tol)
		}
	}
	return nil
}
