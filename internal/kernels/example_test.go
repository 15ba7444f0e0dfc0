package kernels_test

import (
	"fmt"
	"log"
	"math"

	"repro/internal/graph"
	"repro/internal/kernels"
)

// ExampleRunSerial computes BFS levels on a small chain with the serial
// reference engine.
func ExampleRunSerial() {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := kernels.RunSerial(g, kernels.NewBFS(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Values)
	// Output:
	// [0 1 2 3]
}

// ExampleTriangleCount counts the triangles of K4.
func ExampleTriangleCount() {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(graph.VertexID(i), graph.VertexID(j), 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	n, err := kernels.TriangleCount(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output:
	// 4
}

// ShortestPath is README's kernel-authoring snippet: a kernel is a
// per-source Emit, two declared operators and an Apply.
type ShortestPath struct{ src graph.VertexID }

func (ShortestPath) Name() string { return "my-sssp" }
func (ShortestPath) Traits() kernels.Traits {
	// Each edge adds its weight to what the source emits; a destination
	// keeps the minimum. Reading weights makes the engine demand a
	// weighted graph with non-negative weights.
	return kernels.Traits{Edge: kernels.EdgeAddWeight, Agg: kernels.AggMin, MaxIterations: 10_000}
}
func (k ShortestPath) InitialValue(_ *graph.Graph, v graph.VertexID) float64 {
	if v == k.src {
		return 0
	}
	return math.Inf(1)
}
func (k ShortestPath) InitialFrontier(*graph.Graph) []graph.VertexID { return []graph.VertexID{k.src} }
func (ShortestPath) Identity() float64                               { return math.Inf(1) }

// Emit is called once per active vertex: what it sends along every
// out-edge, or false to send nothing.
func (ShortestPath) Emit(_ graph.VertexID, dist float64, _ int64) (float64, bool) {
	return dist, !math.IsInf(dist, 1)
}

// Apply folds the reduced contributions into the vertex and says
// whether it is active next iteration.
func (ShortestPath) Apply(_ *graph.Graph, _ graph.VertexID, old, agg float64, has bool) (float64, bool) {
	if has && agg < old {
		return agg, true
	}
	return old, false
}

// ExampleKernel runs a kernel written from scratch on both machines.
func ExampleKernel() {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 2, 7)
	b.AddEdge(1, 2, 3)
	g, err := b.BuildWeighted()
	if err != nil {
		log.Fatal(err)
	}
	serial, err := kernels.RunSerial(g, ShortestPath{0})
	if err != nil {
		log.Fatal(err)
	}
	staged, err := kernels.Run(g, ShortestPath{0}, kernels.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(serial.Values, staged.Values)
	// Output:
	// [0 2 5 +Inf] [0 2 5 +Inf]
}
