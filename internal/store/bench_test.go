package store

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkStoreMissSweep is the miss path alone: the benchmark's
// ooc-pressure container (weighted com-livejournal stand-in, scale 4,
// 256 KiB segments) under a quarter of its decompressed size, swept in
// ascending segment order the way the engine's push loop pins. ns/op is
// one full sweep of a warm tier; MiB/s is decompressed bytes produced by
// the sweep's misses per second, so a faster decoder raises MiB/s, and
// misses/sweep counts the segments the full tier reads through. The
// weighted sub-benchmark pins through Pin (SSSP's reads), edges through
// PinEdges (BFS, CC and PageRank's): its frames cost half as much, so
// twice as many fit. lists-k pins through PinLists asking for k lists
// spread over each segment, as a sparse frontier does, and reports the
// µs a read-through of them takes: the CRC of the whole payload, the
// skip over the other lists and the decode of those k.
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
	for _, weights := range []bool{true, false} {
		name := "weighted"
		if !weights {
			name = "edges"
		}
		b.Run(name, func(b *testing.B) {
			st, err := OpenBytes(data, Options{LocalBytes: total / 4})
			if err != nil {
				b.Fatal(err)
			}
			pin := st.Pin
			if !weights {
				pin = st.PinEdges
			}
			firsts := make([]graph.VertexID, st.NumSegments())
			for i := range firsts {
				firsts[i] = graph.VertexID(st.segs[i].first)
			}
			// sweep pins every segment once and returns the decompressed
			// bytes its misses produced.
			sweep := func() (decoded int64) {
				for i, v := range firsts {
					if !st.frames[i].resident {
						decoded += st.segCost(int32(i), weights)
					}
					sg, err := pin(v)
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
		})
	}
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("lists-%d", k), func(b *testing.B) {
			st, err := OpenBytes(data, Options{LocalBytes: total / 4})
			if err != nil {
				b.Fatal(err)
			}
			// k vertices of each segment, evenly spaced: one frontier.
			var front []graph.VertexID
			for _, m := range st.segs {
				for i := 0; i < k; i++ {
					front = append(front, graph.VertexID(m.first+m.count*uint64(i)/uint64(k)))
				}
			}
			front = slices.Compact(front)
			sweep := func() {
				for i := 0; i < len(front); {
					sg, err := st.PinLists(front[i], front[i+1:], false)
					if err != nil {
						b.Fatal(err)
					}
					for i++; i < len(front) && sg.Contains(front[i]); {
						i++
					}
					sg.Release()
				}
			}
			sweep() // fill the tier
			before := st.Stats().ReadThroughs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.StopTimer()
			reads := float64(st.Stats().ReadThroughs - before)
			b.ReportMetric(b.Elapsed().Seconds()*1e6/reads, "µs/far-read")
			b.ReportMetric(reads/float64(b.N), "misses/sweep")
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
