package experiments

import (
	"context"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Table1 regenerates Table I from the device catalog: the hardware classes
// with NDP capabilities, their characteristics, and target functionality.
func Table1(cfg Config) (*Artifact, error) {
	a := &Artifact{ID: "table1", Title: "Table I: Diverse characteristics of sample hardware with NDP capabilities"}
	t := metrics.NewTable(a.Title, "Class", "Device", "Internal BW (GB/s)", "Compute units", "FP", "IntMulDiv", "Target functionality")
	for _, d := range ndp.Catalog() {
		bw := interface{}("-")
		if d.InternalBandwidthGBps > 0 {
			bw = d.InternalBandwidthGBps
		}
		t.AddRow(d.Class.String(), d.Name, bw, d.ComputeUnits, d.FP.String(), d.IntMulDiv.String(), d.Target)
	}
	a.Table = t
	// Which kernels can each device host? (The paper's "target
	// functionality" column, made executable.)
	for _, d := range ndp.Catalog() {
		supported := 0
		for _, k := range kernels.All() {
			if d.Supports(k.Name(), k.Traits()).OK {
				supported++
			}
		}
		note(a, "%s (%s): runs %d/%d kernels near data", d.Name, d.Class, supported, len(kernels.All()))
	}
	return a, nil
}

// table2Row is one architecture's measured profile.
type table2Row struct {
	name      string
	nearMem   bool
	commBytes int64
	syncEvts  int64
	seconds   float64
	balanced  bool
	// computeUtil is arithmetic performed / arithmetic provisioned over
	// the run: coupled architectures provision a full server's compute
	// per memory share and leave most of it idle on memory-bound kernels
	// (the Figure 4 skew), while disaggregation provisions hosts
	// independently of pool width.
	computeUtil float64
}

// computeUtilization estimates used/provisioned arithmetic throughput.
func computeUtilization(run *sim.Run, tr kernels.Traits, provisionedGFlops float64) float64 {
	var ops float64
	for _, rec := range run.Records {
		ops += float64(rec.ActiveEdges)*tr.FLOPsPerEdge + float64(rec.Applies)*tr.FLOPsPerApply
	}
	if run.TotalSeconds <= 0 || provisionedGFlops <= 0 {
		return 0
	}
	return ops / (provisionedGFlops * 1e9 * run.TotalSeconds)
}

// Table2 regenerates Table II by running the same workload (PageRank on
// the com-LiveJournal stand-in, 16 partitions) on all four architectures
// and deriving the qualitative ratings from the measured communication
// bytes, synchronization events, and resource coupling.
func Table2(cfg Config) (*Artifact, error) {
	cfg = cfg.withDefaults()
	a := &Artifact{ID: "table2", Title: "Table II: previous works vs disaggregated NDP (PageRank, com-LiveJournal stand-in, 16 partitions)"}
	g, err := dataset(cfg, gen.ComLiveJournal)
	if err != nil {
		return nil, err
	}
	const parts = 16
	assign, topo, err := partitioned(cfg, g, parts, partition.Hash{})
	if err != nil {
		return nil, err
	}
	k := kernels.NewPageRank(cfg.PageRankIterations, kernels.DefaultDamping)
	trace, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: assign})
	if err != nil {
		return nil, err
	}

	engines := []struct {
		e       sim.Engine
		nearMem bool
		// balanced: compute and memory provisioned independently.
		balanced bool
		// provisionedGFlops: coupled architectures buy a full server's
		// compute per graph share (parts servers); disaggregated ones buy
		// the host count the workload actually needs.
		provisionedGFlops float64
	}{
		{&sim.Distributed{Topo: topo}, false, false, float64(parts) * sim.HostGFlops},
		{&sim.DistributedNDP{Topo: topo}, true, false, float64(parts) * sim.HostGFlops},
		{&sim.Disaggregated{Topo: topo}, false, true, float64(topo.ComputeNodes) * sim.HostGFlops},
		{&sim.DisaggregatedNDP{Topo: topo, InNetworkAggregation: true}, true, true,
			float64(topo.ComputeNodes)*sim.HostGFlops + float64(parts)*sim.MemDeviceGFlops},
	}
	rows := make([]table2Row, len(engines))
	for i, spec := range engines {
		run, err := spec.e.Price(trace)
		if err != nil {
			return nil, err
		}
		rows[i] = table2Row{
			name:        run.Engine,
			nearMem:     spec.nearMem,
			commBytes:   run.TotalDataMovementBytes,
			syncEvts:    run.TotalSyncEvents,
			seconds:     run.TotalSeconds,
			balanced:    spec.balanced,
			computeUtil: computeUtilization(run, k.Traits(), spec.provisionedGFlops),
		}
	}
	minComm, minSync := int64(1)<<62, int64(1)<<62
	for _, r := range rows {
		if r.commBytes < minComm {
			minComm = r.commBytes
		}
		if r.syncEvts < minSync {
			minSync = r.syncEvts
		}
	}

	t := metrics.NewTable(a.Title,
		"Architecture", "Near-mem accel", "Comm bytes", "Comm rating", "Sync events", "Sync rating", "Compute util %", "Utilization", "Est time (ms)")
	rate := func(v, min int64) string {
		if v > 2*min {
			return "High"
		}
		return "Low"
	}
	for _, r := range rows {
		check := "x"
		if r.nearMem {
			check = "yes"
		}
		util := "Skewed"
		if r.balanced {
			util = "Balanced"
		}
		t.AddRow(r.name, check, r.commBytes, rate(r.commBytes, minComm), r.syncEvts, rate(r.syncEvts, minSync),
			100*r.computeUtil, util, r.seconds*1e3)
	}
	a.Table = t

	// Paper-shape checks.
	byName := map[string]table2Row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	dndp := byName["disaggregated-ndp+inc"]
	if dndp.commBytes == minComm {
		note(a, "OK: disaggregated NDP has the lowest communication volume")
	} else {
		note(a, "MISMATCH: disaggregated NDP comm %d above minimum %d", dndp.commBytes, minComm)
	}
	if dndp.syncEvts == minSync || byName["disaggregated"].syncEvts == minSync {
		note(a, "OK: disaggregated rows have the lowest synchronization overhead")
	} else {
		note(a, "MISMATCH: a distributed row has the lowest sync count")
	}
	if byName["distributed"].commBytes == byName["distributed-ndp"].commBytes {
		note(a, "OK: NDP inside distributed nodes leaves inter-node movement unchanged (III-B)")
	}
	if byName["disaggregated-ndp+inc"].computeUtil > byName["distributed"].computeUtil {
		note(a, "OK: coupled provisioning strands compute (%.1f%% used) vs disaggregated NDP (%.1f%%) — the Figure 4 skew, measured",
			100*byName["distributed"].computeUtil, 100*byName["disaggregated-ndp+inc"].computeUtil)
	} else {
		note(a, "MISMATCH: disaggregated compute utilization not above distributed")
	}
	return a, nil
}
