package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestVertexViewIsRefused holds every path that needs a graph's edges in
// RAM to an error wrapping graph.ErrVertexView, never a panic, when it is
// handed an offsets-only view (what an out-of-core container keeps
// resident as its vertex side).
func TestVertexViewIsRefused(t *testing.T) {
	g := coreGraph(t)
	view, err := graph.NewVertexView(g.Offsets())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hash, err := partition.Hash{}.Partition(view, DefaultSpec().Partitions)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(DisaggregatedNDP)
	if err != nil {
		t.Fatal(err)
	}
	type path struct {
		name string
		run  func() error
	}
	var paths []path
	for _, m := range []struct {
		name string
		m    kernels.Machine
	}{{"serial", kernels.Serial}, {"staged", kernels.Staged}} {
		for _, dir := range []kernels.Direction{kernels.DirectionPush, kernels.DirectionAuto} {
			paths = append(paths, path{fmt.Sprintf("kernels.RunOn/%s/%s", m.name, dir), func() error {
				_, err := kernels.RunOn(ctx, view, kernels.NewBFS(0), m.m, kernels.Options{Direction: dir})
				return err
			}})
		}
	}
	engine := func(e Engine, cfg RunConfig) func() error {
		return func() error { _, err := e.Run(ctx, view, kernels.NewBFS(0), cfg); return err }
	}
	paths = append(paths,
		path{"sim.Execute", func() error {
			_, err := sim.Execute(ctx, view, kernels.NewBFS(0), sim.ExecConfig{Assign: hash})
			return err
		}},
		path{"core.SerialEngine", engine(SerialEngine(), RunConfig{})},
		path{"core.System.Engine", engine(sys.Engine(), RunConfig{Assignment: hash})},
		path{"core.System.Engine/partitioned", engine(sys.Engine(), RunConfig{})},
		path{"core.System.ConcurrentEngine", engine(sys.ConcurrentEngine(), RunConfig{Assignment: hash})},
		path{"partition.Multilevel", func() error { _, err := partition.Multilevel{}.Partition(view, 4); return err }},
		path{"partition.LDG", func() error { _, err := partition.LDG{}.Partition(view, 4); return err }},
	)
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := p.run(); !errors.Is(err, graph.ErrVertexView) {
				t.Fatalf("err = %v, want graph.ErrVertexView", err)
			}
		})
	}
}

// TestStoreMatchesGraphOnEveryArchitecture holds the four simulated
// architectures to one seam: on an out-of-core container, with every
// segment resident and at a budget of three segments that reads
// through, each prices exactly what it prices on the graph the container
// encodes, and the store ends with no pin outstanding and a clean Close.
func TestStoreMatchesGraphOnEveryArchitecture(t *testing.T) {
	g := coreGraph(t)
	const segBytes = 4 << 10
	data, err := store.EncodeGraph(g, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	sys := hashSystem(t, DisaggregatedNDP)
	ctx := context.Background()
	kernelsUnder := []func() kernels.Kernel{
		func() kernels.Kernel { return kernels.NewPageRank(5, 0.85) },
		func() kernels.Kernel { return kernels.NewBFS(0) },
		func() kernels.Kernel { return kernels.NewSSSP(0) },
		func() kernels.Kernel { return kernels.NewConnectedComponents() },
	}
	for _, budget := range []int64{0, 3 * segBytes} {
		st, err := store.OpenBytes(data, store.Options{LocalBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range kernelsUnder {
			want, err := sys.Compare(ctx, g, mk())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Compare(ctx, st, mk())
			if err != nil {
				t.Fatalf("budget %d, %s: %v", budget, mk().Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d, %s: the container's runs differ from the graph's", budget, mk().Name())
			}
		}
		s := st.Stats()
		if s.Pins != 0 {
			t.Fatalf("budget %d: %d pins outstanding", budget, s.Pins)
		}
		if budget > 0 && s.ReadThroughs == 0 {
			t.Fatalf("budget %d: nothing was read through; the budget does not bind", budget)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
