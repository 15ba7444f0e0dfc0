package runtime

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestEveryPolicyPinned holds every registry policy's pricing of one
// trace to the byte and the bit: for each policy × {aggregation off,
// aggregation on into a 16-entry switch buffer} × {a uniform CXL-CMS
// pool, the alternating CMS/proto-nofp pool of the hetero ablation}, the
// run's total bytes moved, the math.Float64bits of its total time and
// energy, and which iterations offloaded ("X" offloaded, "." fetched).
// SSSP's frontier rises and falls, so the dynamic policies and the
// oracles each pick both mechanisms, and it needs FP, so the mixed pool
// gates its odd nodes. A change meant to move a policy's pricing
// replaces these literals in the same diff, with why.
func TestEveryPolicyPinned(t *testing.T) {
	g, err := gen.Community(100, 2, 16, 0.85, gen.Config{Seed: 17, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	a, err := partition.Hash{}.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Execute(context.Background(), g, kernels.NewSSSP(0), sim.ExecConfig{Assign: a})
	if err != nil {
		t.Fatal(err)
	}
	uniform := sim.DefaultTopology(2, parts)
	uniform.SwitchBufferEntries = 16
	mixed := uniform
	mixed.MemDevices = make([]ndp.Device, parts)
	noFP := ndp.Device{Name: "proto-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full, InternalBandwidthGBps: 800}
	for p := range mixed.MemDevices {
		mixed.MemDevices[p] = ndp.DefaultMemoryDevice()
		if p%2 == 1 {
			mixed.MemDevices[p] = noFP
		}
	}
	pools := []struct {
		name string
		topo sim.Topology
	}{{"uniform", uniform}, {"mixed", mixed}}

	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(everyPolicyPins), "\n") {
		name, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		want[name] = strings.TrimSpace(rest)
	}
	seen := 0
	for _, name := range Names() {
		pol, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pool := range pools {
			for _, agg := range []bool{false, true} {
				run, err := (&sim.DisaggregatedNDP{Topo: pool.topo, Policy: pol, InNetworkAggregation: agg}).Price(trace)
				if err != nil {
					t.Fatal(err)
				}
				pattern := make([]byte, len(run.Records))
				for i, rec := range run.Records {
					pattern[i] = '.'
					if rec.Offloaded {
						pattern[i] = 'X'
					}
				}
				key := fmt.Sprintf("%s/%s/agg=%v", name, pool.name, agg)
				got := fmt.Sprintf("%d %#x %#x %s", run.TotalDataMovementBytes,
					math.Float64bits(run.TotalSeconds), math.Float64bits(run.TotalEnergyJoules), pattern)
				seen++
				if want[key] != got {
					t.Errorf("%s: got %q, want %q", key, got, want[key])
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("priced %d cases, %d pinned", seen, len(want))
	}
}

// everyPolicyPins is one line a case: policy/pool/aggregation, total
// bytes moved, TotalSeconds and TotalEnergyJoules bits, offload pattern.
const everyPolicyPins = `
always/uniform/agg=false 35008 0x3f05bb83b0407d88 0x3eca7dbf36037f45 XXXXXXXXXX
always/uniform/agg=true 31712 0x3f05a9d1b3590dd8 0x3ec87031787d0bcd XXXXXXXXXX
always/mixed/agg=false 34112 0x3f05b6b43c472afa 0x3eca68ea946069c9 XXXXXXXXXX
always/mixed/agg=true 34112 0x3f05b6b43c472afa 0x3eca68ea946069c9 XXXXXXXXXX
degree-threshold/uniform/agg=false 35008 0x3f05bb83b0407d88 0x3eca7dbf36037f45 XXXXXXXXXX
degree-threshold/uniform/agg=true 31712 0x3f05a9d1b3590dd8 0x3ec87031787d0bcd XXXXXXXXXX
degree-threshold/mixed/agg=false 34112 0x3f05b6b43c472afa 0x3eca68ea946069c9 XXXXXXXXXX
degree-threshold/mixed/agg=true 34112 0x3f05b6b43c472afa 0x3eca68ea946069c9 XXXXXXXXXX
heuristic/uniform/agg=false 29920 0x3f05a93a2c93e030 0x3ec79a8a43c5a11e ...XX.....
heuristic/uniform/agg=true 28632 0x3f059f06519109d8 0x3ec6a4ff2f5a7b25 ..XXX.....
heuristic/mixed/agg=false 31280 0x3f05b0875809bd7e 0x3ec8c4396a6865ee ...XX.....
heuristic/mixed/agg=true 31280 0x3f05b0875809bd7e 0x3ec8c4396a6865ee ...XX.....
mixed-oracle/uniform/agg=false 29816 0x3f05a61837c4396e 0x3ec794137fee9a2f ...XXX....
mixed-oracle/uniform/agg=true 29816 0x3f05a61837c4396e 0x3ec794137fee9a2f ...XXX....
mixed-oracle/mixed/agg=false 31184 0x3f05ad7061fa0778 0x3ec8b37951ffa676 ...XXX....
mixed-oracle/mixed/agg=true 31184 0x3f05ad7061fa0778 0x3ec8b37951ffa676 ...XXX....
never/uniform/agg=false 32384 0x3f05bf40437b4da8 0x3ec9bfbcd10b425c ..........
never/uniform/agg=true 32384 0x3f05bf40437b4da8 0x3ec9bfbcd10b425c ..........
never/mixed/agg=false 32384 0x3f05bf40437b4da8 0x3ec9bfbcd10b425c ..........
never/mixed/agg=true 32384 0x3f05bf40437b4da8 0x3ec9bfbcd10b425c ..........
oracle/uniform/agg=false 29920 0x3f05a93a2c93e030 0x3ec79a8a43c5a11e ...XX.....
oracle/uniform/agg=true 28592 0x3f05a218fc1dc5d4 0x3ec6c5dff24cd764 ...XX.....
oracle/mixed/agg=false 31280 0x3f05b0875809bd7e 0x3ec8c4396a6865ee ...XX.....
oracle/mixed/agg=true 31280 0x3f05b0875809bd7e 0x3ec8c4396a6865ee ...XX.....
partition-heuristic/uniform/agg=false 29856 0x3f05a5989247ea9e 0x3ec798907d485f37 ..XXX.....
partition-heuristic/uniform/agg=true 29856 0x3f05a5989247ea9e 0x3ec798907d485f37 ..XXX.....
partition-heuristic/mixed/agg=false 31200 0x3f05b019648a5620 0x3ec8c0c9ce6d2af6 ...XX.....
partition-heuristic/mixed/agg=true 31200 0x3f05b019648a5620 0x3ec8c0c9ce6d2af6 ...XX.....
`
