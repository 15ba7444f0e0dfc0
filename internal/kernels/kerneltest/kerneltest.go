// Package kerneltest holds kernel doubles shared by the test suites of
// the packages that run kernels.
package kerneltest

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// CancelAfter wraps k so that cancel fires on its n-th Emit — one per
// frontier vertex traversed — for deterministic mid-run cancellation,
// wherever the run's context is checked. The count is atomic: the staged
// machine emits from several workers at once.
func CancelAfter(k kernels.Kernel, n int, cancel context.CancelFunc) kernels.Kernel {
	c := &cancelKernel{Kernel: k, cancel: cancel}
	c.remaining.Store(int64(n))
	return c
}

type cancelKernel struct {
	kernels.Kernel
	remaining atomic.Int64
	cancel    context.CancelFunc
}

func (c *cancelKernel) Emit(v graph.VertexID, value float64, outDegree int64) (float64, bool) {
	if c.remaining.Add(-1) == 0 {
		c.cancel()
	}
	return c.Kernel.Emit(v, value, outDegree)
}
