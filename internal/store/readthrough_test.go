package store

import (
	"context"
	"testing"

	"repro/internal/kernels"
)

// TestReadThroughServesOnlyItsLists poisons every read-through buffer
// outside the lists a pin serves — out-of-range ids, NaN weights — and
// runs every kernel on both machines over a weighted and an unweighted
// container, at a budget of one read-through buffer and no frame, at a
// thrashing one and unlimited. A push loop that read a list it was not
// served would index past the vertex range or fold a NaN; each result
// must instead be bit-identical to the in-memory push run on the same
// machine, with no pin left after it.
func TestReadThroughServesOnlyItsLists(t *testing.T) {
	poisonReadThroughs = true
	defer func() { poisonReadThroughs = false }()
	for gname, g := range testGraphs(t) {
		data, err := EncodeGraph(g, 256)
		if err != nil {
			t.Fatal(err)
		}
		var mem kernels.Source = g
		probe, err := OpenBytes(data, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := 0; i < probe.NumSegments(); i++ {
			total += probe.segCost(int32(i), true)
		}
		budgets := map[string]int64{"zero-frame": probe.bufCost, "thrashing": probe.bufCost + total/4, "unlimited": 0}
		mustClose(t, probe)
		for _, name := range kernels.Names() {
			if kernels.CheckGraph(mem, mustKernel(t, name)) != nil {
				continue // weighted kernels on the unweighted grid
			}
			for _, machine := range []kernels.Machine{kernels.Serial, kernels.Staged} {
				opt := kernels.Options{Direction: kernels.DirectionPush, Workers: 3}
				ref, err := kernels.RunOn(context.Background(), mem, mustKernel(t, name), machine, opt)
				if err != nil {
					t.Fatal(err)
				}
				for bname, budget := range budgets {
					label := gname + "/" + name + "/" + bname
					st, err := OpenBytes(data, Options{LocalBytes: budget})
					if err != nil {
						t.Fatal(err)
					}
					got, err := kernels.RunOn(context.Background(), st, mustKernel(t, name), machine, opt)
					if err != nil {
						t.Fatalf("%s, machine %d: %v", label, machine, err)
					}
					assertResultsIdentical(t, label, got, ref)
					s := st.Stats()
					if s.Pins != 0 || (budget > 0) != (s.ReadThroughs > 0) {
						t.Fatalf("%s, machine %d: stats %+v", label, machine, s)
					}
					mustClose(t, st)
				}
			}
		}
	}
}
