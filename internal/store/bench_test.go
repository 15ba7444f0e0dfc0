package store

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkStoreMissSweep is the miss path alone: the benchmark's
// ooc-pressure container (weighted com-livejournal stand-in, scale 4,
// 256 KiB segments) under a quarter of its decompressed size, swept in
// ascending segment order the way the engine's push loop pins. ns/op is
// one full sweep of a warm tier; MiB/s is decompressed bytes produced by
// the sweep's misses per second, so a faster decoder raises MiB/s and a
// better victim choice lowers misses/sweep.
func BenchmarkStoreMissSweep(b *testing.B) {
	g, err := gen.ComLiveJournal.Generate(4, gen.Config{Seed: 42, Weighted: true, DropSelfLoops: true})
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeGraph(g, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	total := g.NumEdges() * 8 // ids and weights, 4 bytes each
	st, err := OpenBytes(data, Options{LocalBytes: total / 4})
	if err != nil {
		b.Fatal(err)
	}
	firsts := make([]graph.VertexID, st.NumSegments())
	for i := range firsts {
		firsts[i] = graph.VertexID(st.segs[i].first)
	}
	// sweep pins every segment once and returns the decompressed bytes
	// its misses produced.
	sweep := func() (decoded int64) {
		for i, v := range firsts {
			if !st.frames[i].resident {
				decoded += st.segCost(int32(i))
			}
			sg, err := st.Pin(v)
			if err != nil {
				b.Fatal(err)
			}
			sg.Release()
		}
		return decoded
	}
	sweep() // fill the tier
	sweep() // and let the resident set settle
	missesBefore := st.Stats().Misses
	var decoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded += sweep()
	}
	b.StopTimer()
	b.ReportMetric(float64(decoded)/(1<<20)/b.Elapsed().Seconds(), "MiB/s")
	b.ReportMetric(float64(st.Stats().Misses-missesBefore)/float64(b.N), "misses/sweep")
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}
