package cluster

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/kernels"
)

// FuzzDenseAccumulator holds denseAcc to the structure it replaced: a map
// folded with AggOp.Reduce in arrival order and emitted through a sort.
// The input is a sequence of 10-byte records — a 16-bit index and the raw
// bits of a float64, so NaNs, signed zeros and infinities all occur —
// cut into three rounds over one accumulator, the middle one emptied by
// take: after each round the same indices must come out ascending with
// the same value bits, and nothing may be left behind for the next.
func FuzzDenseAccumulator(f *testing.F) {
	rec := func(i uint16, v float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, i)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	f.Add(slices.Concat(rec(63, 1), rec(64, 2), rec(63, math.Copysign(0, -1)), rec(0, math.NaN())))
	f.Add(slices.Concat(rec(127, math.Inf(1)), rec(128, math.Inf(-1)), rec(127, math.Inf(-1)), rec(128, 0)))
	f.Add(slices.Concat(rec(5, math.Copysign(0, -1)), rec(5, 0), rec(191, 3), rec(192, 4), rec(5, -1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 200 // three full words and a partial one
		type pair struct {
			i int
			v uint64
		}
		for _, op := range []kernels.AggOp{kernels.AggSum, kernels.AggMin, kernels.AggMax} {
			acc := newDenseAcc(width, op)
			records := len(data) / 10
			for round := 0; round < 3; round++ {
				ref := make(map[int]float64)
				for r := round * records / 3; r < (round+1)*records/3; r++ {
					i := int(binary.LittleEndian.Uint16(data[r*10:])) % width
					v := math.Float64frombits(binary.LittleEndian.Uint64(data[r*10+2:]))
					acc.add(i, v)
					if prev, seen := ref[i]; seen {
						ref[i] = op.Reduce(prev, v)
					} else {
						ref[i] = v
					}
				}
				keys := make([]int, 0, len(ref))
				for i := range ref {
					keys = append(keys, i)
				}
				slices.Sort(keys)
				want := make([]pair, len(keys))
				for j, i := range keys {
					want[j] = pair{i, math.Float64bits(ref[i])}
				}
				var got []pair
				if round == 1 {
					for i := 0; i < width; i++ {
						if v, ok := acc.take(i); ok {
							got = append(got, pair{i, math.Float64bits(v)})
						}
					}
				} else {
					acc.drain(func(i int, v float64) { got = append(got, pair{i, math.Float64bits(v)}) })
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v round %d: got %x, map+sort gives %x", op, round, got, want)
				}
				acc.drain(func(i int, v float64) { t.Fatalf("%v round %d: index %d left behind", op, round, i) })
			}
		}
	})
}
