package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Result is the unified outcome of any engine execution — the analytical
// simulators (previously *sim.Run), the concurrent actor cluster
// (previously *cluster.Outcome), and the serial reference. One type means
// every Engine, Compare, and the ndpserve job executor all hand back the
// same shape, and a cache or a wire format needs exactly one marshaller.
//
// The union is explicit rather than an interface: analytical runs fill
// the Records/Total* fields and leave the Traffic/Faults block zero;
// concurrent runs do the opposite. Values, Iterations, and Converged are
// always set — they are the part every execution model shares and the
// part the verification oracles compare bit for bit.
type Result struct {
	// Engine names the execution model that produced the result (the
	// sim engine name, "serial", or the cluster's "disaggregated-ndp-cluster").
	Engine string
	// Kernel names the vertex program.
	Kernel string

	// Values is the final vertex property vector; Iterations the number
	// of executed iterations; Converged whether a fixed point (or an
	// empty frontier) was reached within the budget.
	Values     []float64
	Iterations int
	Converged  bool

	// --- analytical-run fields (sim engines and the serial reference) ---

	// Records holds the per-iteration accounting records.
	Records []sim.Record
	// OffloadSupported / OffloadNote report NDP device capability.
	OffloadSupported bool
	OffloadNote      string
	// Totals over all iterations.
	TotalDataMovementBytes int64
	TotalSyncEvents        int64
	TotalSeconds           float64
	TotalEnergyJoules      float64

	// --- concurrent-run fields (the actor cluster) ---

	// PerIteration holds each iteration's measured traffic; Traffic the
	// totals per link class.
	PerIteration []cluster.Traffic
	Traffic      cluster.Traffic
	// LevelBytes / LevelBytesIn are the per-switch-level conservation
	// tallies (see cluster.Outcome).
	LevelBytes   []int64
	LevelBytesIn []int64
	// Faults summarizes injected faults and recovery work.
	Faults cluster.FaultStats
	// Counters is the run's metrics snapshot, sorted by name.
	Counters []metrics.CounterValue
}

// ClusterEngineName is the Engine field value of concurrent-cluster
// results.
const ClusterEngineName = "disaggregated-ndp-cluster"

// SerialEngineName is the Engine field value of serial reference runs.
const SerialEngineName = "serial"

// FromSim wraps an analytical simulator run.
func FromSim(r *sim.Run) *Result {
	if r == nil {
		return nil
	}
	res := &Result{
		Engine:                 r.Engine,
		Kernel:                 r.Kernel,
		Records:                r.Records,
		OffloadSupported:       r.OffloadSupported,
		OffloadNote:            r.OffloadNote,
		TotalDataMovementBytes: r.TotalDataMovementBytes,
		TotalSyncEvents:        r.TotalSyncEvents,
		TotalSeconds:           r.TotalSeconds,
		TotalEnergyJoules:      r.TotalEnergyJoules,
	}
	if r.Result != nil {
		res.Values = r.Result.Values
		res.Iterations = r.Result.Iterations
		res.Converged = r.Result.Converged
	}
	return res
}

// FromSerial wraps a serial reference run.
func FromSerial(kernel string, r *kernels.Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Engine:     SerialEngineName,
		Kernel:     kernel,
		Values:     r.Values,
		Iterations: r.Iterations,
		Converged:  r.Converged,
	}
}

// FromOutcome wraps a concurrent cluster outcome.
func FromOutcome(kernel string, o *cluster.Outcome) *Result {
	if o == nil {
		return nil
	}
	return &Result{
		Engine:       ClusterEngineName,
		Kernel:       kernel,
		Values:       o.Values,
		Iterations:   o.Iterations,
		Converged:    o.Converged,
		PerIteration: o.PerIteration,
		Traffic:      o.Traffic,
		LevelBytes:   o.LevelBytes,
		LevelBytesIn: o.LevelBytesIn,
		Faults:       o.Faults,
		Counters:     o.Counters,
	}
}

// String renders a one-line summary (the vertex vector is elided — print
// Values explicitly to inspect it). Analytical runs report the movement
// totals the simulator accounts; concurrent runs the measured traffic.
func (r *Result) String() string {
	if len(r.PerIteration) > 0 || r.Traffic != (cluster.Traffic{}) {
		return fmt.Sprintf("%s/%s: %d iterations, mem→switch %d switch→compute %d writeback %d bytes",
			r.Engine, r.Kernel, r.Iterations,
			r.Traffic.MemToSwitch, r.Traffic.SwitchToCompute, r.Traffic.Writeback)
	}
	return fmt.Sprintf("%s/%s: %d iterations, moved %d bytes, %d sync events, est %.3f ms",
		r.Engine, r.Kernel, r.Iterations,
		r.TotalDataMovementBytes, r.TotalSyncEvents, r.TotalSeconds*1e3)
}

// Counter returns the value of a named counter from the run's metrics
// snapshot (0 if absent — analytical runs carry no counters).
func (r *Result) Counter(name string) int64 {
	for _, c := range r.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// MovementSeries returns per-iteration DataMovementBytes for analytical
// runs (the series Figure 7 plots) and per-iteration Traffic totals for
// concurrent runs.
func (r *Result) MovementSeries() []int64 {
	if len(r.Records) > 0 {
		out := make([]int64, len(r.Records))
		for i := range r.Records {
			out[i] = r.Records[i].DataMovementBytes
		}
		return out
	}
	out := make([]int64, len(r.PerIteration))
	for i := range r.PerIteration {
		out[i] = r.PerIteration[i].Total()
	}
	return out
}
