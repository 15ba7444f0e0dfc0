package sim_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/ndp"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestSharedTracePricesLikeARun is the execute-once oracle. For each
// kernel and partitioner one trace is executed, then priced — all
// pricings at once, so -race sees any write to it — by every
// architecture, every offload policy with aggregation on and off, on a
// uniform pool, a heterogeneous one and a bounded switch buffer. Each
// pricing must equal, bit for bit, a fresh execution priced alone by the
// same engine: the values, every Record field and the time and energy
// bits. A host edge cache is an execution input: its trace prices under
// Disaggregated, and the other engines refuse it.
func TestSharedTracePricesLikeARun(t *testing.T) {
	g, err := gen.Community(240, 3, 8, 0.8, gen.Config{Seed: 5, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 8
	upmem, err := ndp.ByName("UPMEM")
	if err != nil {
		t.Fatal(err)
	}
	noFP := ndp.Device{Name: "toy-nofp", Class: ndp.PNM, FP: ndp.None, IntMulDiv: ndp.Full}
	base := sim.DefaultTopology(2, parts)
	hetero := base
	hetero.MemDevices = make([]ndp.Device, parts)
	for p := range hetero.MemDevices {
		hetero.MemDevices[p] = []ndp.Device{ndp.DefaultMemoryDevice(), upmem, noFP}[p%3]
	}
	buffered := base
	buffered.SwitchBufferEntries = 4096
	const cacheBytes = 1 << 10

	for _, kname := range []string{"bfs", "cc", "sssp", "pagerank", "pagerank-delta"} {
		for _, pname := range []string{"hash", "ldg"} {
			p, err := partition.ByName(pname, 1)
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Partition(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() kernels.Kernel {
				k, err := kernels.ByNameIters(kname, 6)
				if err != nil {
					t.Fatal(err)
				}
				return k
			}
			engines := []sim.Engine{
				&sim.Distributed{Topo: base},
				&sim.DistributedNDP{Topo: base},
				&sim.DistributedNDP{Topo: hetero},
				&sim.Disaggregated{Topo: base},
			}
			for _, topo := range []sim.Topology{base, hetero, buffered} {
				for _, name := range runtime.Names() {
					pol, err := runtime.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					for _, agg := range []bool{false, true} {
						engines = append(engines, &sim.DisaggregatedNDP{Topo: topo, Policy: pol, InNetworkAggregation: agg})
					}
				}
			}
			plain := sim.ExecConfig{Assign: a}
			withCache := sim.ExecConfig{Assign: a, CacheBytes: cacheBytes}
			trace, err := sim.Execute(context.Background(), g, fresh(), plain)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := sim.Execute(context.Background(), g, fresh(), withCache)
			if err != nil {
				t.Fatal(err)
			}
			cache := &sim.Disaggregated{Topo: base}
			got := make([]*sim.Run, len(engines)+1)
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i == len(engines) {
						got[i], errs[i] = cache.Price(cached)
						return
					}
					got[i], errs[i] = engines[i].Price(trace)
				}(i)
			}
			wg.Wait()
			for i, e := range append(engines, cache) {
				label := fmt.Sprintf("%s/%s %s %d", kname, pname, e.Name(), i)
				if errs[i] != nil {
					t.Fatalf("%s: price: %v", label, errs[i])
				}
				cfg := plain
				if i == len(engines) {
					cfg = withCache
				}
				alone, err := sim.Execute(context.Background(), g, fresh(), cfg)
				if err != nil {
					t.Fatalf("%s: execute: %v", label, err)
				}
				want, err := e.Price(alone)
				if err != nil {
					t.Fatalf("%s: price alone: %v", label, err)
				}
				sameRun(t, label, got[i], want)
			}
			if _, err := engines[len(engines)-1].Price(cached); err == nil || !strings.Contains(err.Error(), "edge cache") {
				t.Errorf("%s/%s: a cached trace priced under disaggregated-ndp: %v", kname, pname, err)
			}
		}
	}
}

// sameRun fails unless got equals want bit for bit.
func sameRun(t *testing.T, label string, got, want *sim.Run) {
	t.Helper()
	if len(got.Result.Values) != len(want.Result.Values) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Result.Values), len(want.Result.Values))
	}
	for v := range got.Result.Values {
		if math.Float64bits(got.Result.Values[v]) != math.Float64bits(want.Result.Values[v]) {
			t.Fatalf("%s: value %d is %v, want %v", label, v, got.Result.Values[v], want.Result.Values[v])
		}
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("%s: kernel results differ", label)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		g, w := got.Records[i], want.Records[i]
		if math.Float64bits(g.EstimatedSeconds) != math.Float64bits(w.EstimatedSeconds) ||
			math.Float64bits(g.EnergyJoules) != math.Float64bits(w.EnergyJoules) {
			t.Fatalf("%s it%d: time and energy bits differ", label, i)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s it%d: records differ:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
	bits := func(r *sim.Run) [2]uint64 {
		return [2]uint64{math.Float64bits(r.TotalSeconds), math.Float64bits(r.TotalEnergyJoules)}
	}
	if got.Engine != want.Engine || got.Kernel != want.Kernel ||
		got.OffloadSupported != want.OffloadSupported || got.OffloadNote != want.OffloadNote ||
		got.TotalDataMovementBytes != want.TotalDataMovementBytes || got.TotalSyncEvents != want.TotalSyncEvents ||
		bits(got) != bits(want) {
		t.Fatalf("%s: run summaries differ", label)
	}
}
