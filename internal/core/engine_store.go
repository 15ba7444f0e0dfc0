package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/store"
)

// OutOfCoreEngineName is the Engine field value of out-of-core runs.
const OutOfCoreEngineName = "out-of-core"

// storeEngine executes kernels directly from an out-of-core container:
// the same serial machine SerialEngine runs, with the store as its
// adjacency source, so the traversal pins compressed segments through
// the store's local memory tier instead of walking an in-RAM CSR. A
// container stores out-edges only, so every iteration pushes; results
// are bit-equal to the serial push reference on the materialized graph,
// and this engine slots into the same verification oracles.
type storeEngine struct {
	st *store.Store
}

// StoreEngine wraps an open container as a unified Engine. The store is
// the graph: Run ignores the graph argument (pass nil) and the
// RunConfig assignment (out-of-core execution has no partitions). The
// caller keeps ownership of the store — the engine never closes it —
// and runs must not overlap with Close.
func StoreEngine(st *store.Store) Engine { return storeEngine{st: st} }

func (storeEngine) Name() string { return OutOfCoreEngineName }

func (e storeEngine) Run(ctx context.Context, _ *graph.Graph, k kernels.Kernel, _ RunConfig) (*Result, error) {
	out, err := runSerial(ctx, e.st, k)
	if err != nil {
		return nil, err
	}
	out.Engine = OutOfCoreEngineName
	return out, nil
}
