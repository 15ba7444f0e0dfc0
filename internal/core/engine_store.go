package core

import (
	"context"

	"repro/internal/kernels"
	"repro/internal/store"
)

// OutOfCoreEngineName is the Engine field value of out-of-core runs.
const OutOfCoreEngineName = "out-of-core"

// storeEngine is the serial machine over one container, which stores
// out-edges only: every iteration pushes, bit-equal to the serial push
// reference on the materialized graph.
type storeEngine struct {
	st *store.Store
}

// StoreEngine is SerialEngine with st as its fixed source (Run ignores
// its source argument; pass nil), kept for the benchmark harness: every
// engine takes a store as its source. The caller keeps ownership of the
// store — the engine never closes it — and runs must not overlap with
// Close.
func StoreEngine(st *store.Store) Engine { return storeEngine{st: st} }

func (storeEngine) Name() string { return OutOfCoreEngineName }

func (e storeEngine) Run(ctx context.Context, _ kernels.Source, k kernels.Kernel, cfg RunConfig) (*Result, error) {
	out, err := SerialEngine().Run(ctx, e.st, k, cfg)
	if err != nil {
		return nil, err
	}
	out.Engine = OutOfCoreEngineName
	return out, nil
}
