// Parallel host-side compute: the compute nodes in a disaggregated
// deployment are themselves multicore, so the framework ships a parallel
// execution engine for the local phases. This example validates the
// parallel engine against the serial reference on every kernel and
// measures its speedup on this machine.
//
//	go run ./examples/parallelcompute
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/metrics"
)

func main() {
	g, err := gen.Twitter7.Generate(1.0, gen.Config{Seed: 9, Weighted: true, DropSelfLoops: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v, GOMAXPROCS=%d\n\n", g, runtime.GOMAXPROCS(0))

	t := metrics.NewTable("serial vs parallel execution",
		"Kernel", "Serial (ms)", "Parallel (ms)", "Speedup", "Max |diff|")
	for _, k := range []kernels.Kernel{
		kernels.NewPageRank(10, 0.85),
		kernels.NewConnectedComponents(),
		kernels.NewBFS(0),
		kernels.NewSSSP(0),
	} {
		t0 := time.Now()
		ser, err := kernels.RunSerial(g, k)
		if err != nil {
			log.Fatal(err)
		}
		serialMS := float64(time.Since(t0).Microseconds()) / 1e3

		t1 := time.Now()
		par, err := kernels.Run(g, k, kernels.Options{})
		if err != nil {
			log.Fatal(err)
		}
		parallelMS := float64(time.Since(t1).Microseconds()) / 1e3

		var maxDiff float64
		for v := range ser.Values {
			a, b := ser.Values[v], par.Values[v]
			if math.IsInf(a, 1) && math.IsInf(b, 1) {
				continue
			}
			if d := math.Abs(a - b); d > maxDiff {
				maxDiff = d
			}
		}
		t.AddRow(k.Name(), serialMS, parallelMS, serialMS/parallelMS, maxDiff)
	}
	fmt.Println(t)
	fmt.Println("min/max kernels match bit-exactly; sum kernels differ only by")
	fmt.Println("floating-point association order across worker shards.")
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: GOMAXPROCS=1 — sharding overhead without parallel speedup; run on a multicore host to see the scaling.")
	}
}
