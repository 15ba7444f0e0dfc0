package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
)

// heteroTopology builds a pool whose even-numbered memory nodes carry a
// full-capability PNM device and whose odd-numbered nodes carry the
// crippled device `odd`.
func heteroTopology(computeNodes, memoryNodes int, odd ndp.Device) Topology {
	topo := DefaultTopology(computeNodes, memoryNodes)
	devices := make([]ndp.Device, memoryNodes)
	cms := ndp.DefaultMemoryDevice()
	for p := range devices {
		if p%2 == 0 {
			devices[p] = cms
		} else {
			devices[p] = odd
		}
	}
	topo.MemDevices = devices
	return topo
}

func TestHeterogeneousPoolGatesOffloadPerNode(t *testing.T) {
	g := simGraph(t)
	const parts = 8
	a := hashAssign(t, g, parts)
	noFP := ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full}
	topo := heteroTopology(2, parts, noFP)

	// PageRank needs FP: odd nodes must fetch, even nodes may offload.
	k := kernels.NewPageRank(5, 0.85)
	run, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if run.OffloadSupported {
		t.Error("heterogeneous pool with FP-less nodes reported full support")
	}
	if !strings.Contains(run.OffloadNote, "4/8") {
		t.Errorf("OffloadNote = %q, want 4/8 supported", run.OffloadNote)
	}
	for _, rec := range run.Records {
		for p, pr := range rec.PerPartition {
			if p%2 == 1 && pr.Offloaded {
				t.Fatalf("it%d: FP-less node %d offloaded pagerank", rec.Iteration, p)
			}
			if p%2 == 0 && !pr.Offloaded {
				t.Fatalf("it%d: capable node %d did not offload under AlwaysOffload", rec.Iteration, p)
			}
		}
	}
	// Results identical to the serial reference regardless of gating.
	ref, err := kernels.RunSerial(g, k)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, "hetero", run.Result.Values, ref.Values, 1e-12)
}

func TestHeterogeneousPoolMovementBetweenPureConfigs(t *testing.T) {
	g, err := gen.Twitter7.Generate(0.25, gen.Config{Seed: 3, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)

	uniform := DefaultTopology(2, parts)
	allNDP, err := execPrice(&DisaggregatedNDP{Topo: uniform}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	noNDP, err := execPrice(&Disaggregated{Topo: uniform}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	noFP := ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full}
	hetero, err := execPrice(&DisaggregatedNDP{Topo: heteroTopology(2, parts, noFP)}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	// On a graph where offload wins, the half-capable pool lands between
	// the pure configurations.
	if !(allNDP.TotalDataMovementBytes < hetero.TotalDataMovementBytes &&
		hetero.TotalDataMovementBytes < noNDP.TotalDataMovementBytes) {
		t.Errorf("expected allNDP (%d) < hetero (%d) < noNDP (%d)",
			allNDP.TotalDataMovementBytes, hetero.TotalDataMovementBytes, noNDP.TotalDataMovementBytes)
	}
}

func TestHeterogeneousPoolAllUnsupportedFallsBack(t *testing.T) {
	g := simGraph(t)
	const parts = 4
	a := hashAssign(t, g, parts)
	topo := DefaultTopology(2, parts)
	noFP := ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None}
	topo.MemDevices = []ndp.Device{noFP, noFP, noFP, noFP}
	k := kernels.NewPageRank(3, 0.85)
	run, err := execPrice(&DisaggregatedNDP{Topo: topo}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := execPrice(&Disaggregated{Topo: DefaultTopology(2, parts)}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalDataMovementBytes != plain.TotalDataMovementBytes {
		t.Errorf("all-unsupported pool moved %d, passive disaggregation %d",
			run.TotalDataMovementBytes, plain.TotalDataMovementBytes)
	}
}

func TestTopologyValidatesMemDevicesLength(t *testing.T) {
	topo := DefaultTopology(2, 4)
	topo.MemDevices = []ndp.Device{ndp.DefaultMemoryDevice()} // wrong length
	if err := topo.Validate(); err == nil {
		t.Error("accepted MemDevices length mismatch")
	}
}

func TestUPMEMPenaltyIncreasesTimeNotMovement(t *testing.T) {
	g := simGraph(t)
	const parts = 4
	a := hashAssign(t, g, parts)
	k := kernels.NewPageRank(5, 0.85)
	cms := DefaultTopology(2, parts)
	upmem := DefaultTopology(2, parts)
	dev, err := ndp.ByName("UPMEM")
	if err != nil {
		t.Fatal(err)
	}
	upmem.MemDevice = dev
	a1, err := execPrice(&DisaggregatedNDP{Topo: cms}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := execPrice(&DisaggregatedNDP{Topo: upmem}, g, k, ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	if a1.TotalDataMovementBytes != a2.TotalDataMovementBytes {
		t.Errorf("device choice changed movement: %d vs %d", a1.TotalDataMovementBytes, a2.TotalDataMovementBytes)
	}
	if a2.TotalSeconds <= a1.TotalSeconds {
		t.Errorf("UPMEM FP penalty should slow pagerank: %g <= %g", a2.TotalSeconds, a1.TotalSeconds)
	}
}

// TestGatedPoolOraclePricesWhatIsCharged holds the oracle to its
// definition on a gated pool with the switch aggregating: a gated pool is
// charged node by node without aggregation, so the policies must be told
// the switch does not aggregate, and the oracle's pick then costs no more
// than fetching or offloading in every iteration.
func TestGatedPoolOraclePricesWhatIsCharged(t *testing.T) {
	g, err := gen.ComLiveJournal.Generate(0.25, gen.Config{Seed: 3, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	a := hashAssign(t, g, parts)
	noFP := ndp.Device{Name: "proto-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full, InternalBandwidthGBps: 800}
	topo := heteroTopology(2, parts, noFP)
	trace, err := Execute(context.Background(), g, kernels.NewSSSP(0), ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	price := func(p OffloadPolicy) *Run {
		run, err := (&DisaggregatedNDP{Topo: topo, Policy: p, InNetworkAggregation: true}).Price(trace)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	oracle, never, always := price(Oracle{}), price(NeverOffload{}), price(AlwaysOffload{})
	for i, rec := range oracle.Records {
		if floor := min(never.Records[i].DataMovementBytes, always.Records[i].DataMovementBytes); rec.DataMovementBytes > floor {
			t.Errorf("iteration %d: oracle moved %d B, cheaper mechanism %d B", i, rec.DataMovementBytes, floor)
		}
	}
}
