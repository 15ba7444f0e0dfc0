package graph

import (
	"encoding/binary"
	"testing"
)

// referenceDecode is DecodeCompressedAdjacency without the inline
// varint paths: one binary.Uvarint per neighbor, the same checks in the
// same order. The table cases and the fuzz target hold the real decoder
// to it for values, bytes consumed, failing list and error.
func referenceDecode(dst []VertexID, offsets []int64, buf []byte, limit uint64) (int, int, error) {
	off := 0
	for j := 0; j+1 < len(offsets); j++ {
		prev := uint64(0)
		for k := offsets[j] - offsets[0]; k < offsets[j+1]-offsets[0]; k++ {
			gap, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return 0, j, errTruncatedAdjacency
			}
			if gap > 0xFFFFFFFF {
				return 0, j, errNeighborOverflow
			}
			off += n
			v := prev + gap
			if v > 0xFFFFFFFF {
				return 0, j, errNeighborOverflow
			}
			if v >= limit {
				return 0, j, errNeighborRange
			}
			dst[k] = VertexID(v)
			prev = v
		}
	}
	return off, 0, nil
}

// checkAgainstReference decodes buf both ways and requires agreement.
func checkAgainstReference(t *testing.T, offsets []int64, buf []byte, limit uint64) (got []VertexID, consumed, list int, err error) {
	t.Helper()
	n := 0
	if len(offsets) > 0 {
		n = int(offsets[len(offsets)-1] - offsets[0])
	}
	got, want := make([]VertexID, n), make([]VertexID, n)
	consumed, list, err = DecodeCompressedAdjacency(got, offsets, buf, limit)
	wantConsumed, wantList, wantErr := referenceDecode(want, offsets, buf, limit)
	if err != wantErr || consumed != wantConsumed || list != wantList {
		t.Fatalf("offsets %v buf %x limit %d: got (%d, list %d, %v), reference (%d, list %d, %v)",
			offsets, buf, limit, consumed, list, err, wantConsumed, wantList, wantErr)
	}
	if err == nil {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("offsets %v buf %x: id[%d] = %d, reference %d", offsets, buf, i, got[i], want[i])
			}
		}
	}
	return got, consumed, list, err
}

// uvarints concatenates the varint encodings of xs.
func uvarints(xs ...uint64) []byte {
	var buf []byte
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, x)
	}
	return buf
}

// TestDecodeCompressedAdjacencyNearBufferEnd covers where the inline
// paths hand over to binary.Uvarint: a varint of every width from one to
// five bytes whose last byte is the last, second-to-last and
// third-to-last byte of the buffer, so the three-byte look-ahead is
// missing, partial and just available.
func TestDecodeCompressedAdjacencyNearBufferEnd(t *testing.T) {
	widths := []uint64{0x7f, 0x3fff, 0x1fffff, 0xfffffff, 0xffffffff} // largest value of each width
	for w, x := range widths {
		if got := len(uvarints(x)); got != w+1 {
			t.Fatalf("fixture: %#x encodes to %d bytes, want %d", x, got, w+1)
		}
		for tail := 0; tail <= 2; tail++ {
			for _, lead := range [][]uint64{nil, {3}, {3, 200}} {
				ids := append(append([]uint64(nil), lead...), x)
				buf := append(uvarints(ids...), make([]byte, tail)...)
				// x opens a list of its own, so it decodes to itself.
				offsets := []int64{0, int64(len(lead)), int64(len(ids))}
				got, consumed, _, err := checkAgainstReference(t, offsets, buf, 1<<32)
				if err != nil {
					t.Fatalf("width %d tail %d lead %v: %v", w+1, tail, lead, err)
				}
				if consumed != len(buf)-tail || uint64(got[len(got)-1]) != x {
					t.Fatalf("width %d tail %d lead %v: consumed %d of %d, last id %#x, want %d and %#x",
						w+1, tail, lead, consumed, len(buf), got[len(got)-1], len(buf)-tail, x)
				}
				// One byte short of that varint is a truncation wherever it sits.
				if _, _, _, err := checkAgainstReference(t, offsets, buf[:len(buf)-tail-1], 1<<32); err != errTruncatedAdjacency {
					t.Fatalf("width %d lead %v: cut varint returned %v", w+1, lead, err)
				}
			}
		}
	}
}

// TestDecodeCompressedAdjacencyBounds pins the id checks: the widest
// legal gap, the wrap a ten-byte gap used to slip through, and the
// caller's vertex-count limit, each at its edge.
func TestDecodeCompressedAdjacencyBounds(t *testing.T) {
	one := func(n int) []int64 { return []int64{0, int64(n)} }
	for _, tc := range []struct {
		name    string
		offsets []int64
		buf     []byte
		limit   uint64
		want    []VertexID
		err     error
		list    int
	}{
		{"gap of exactly 0xFFFFFFFF", one(2), uvarints(0, 0xFFFFFFFF), 1 << 32, []VertexID{0, 0xFFFFFFFF}, nil, 0},
		{"gap of 0xFFFFFFFF past id 1", one(2), uvarints(1, 0xFFFFFFFF), 1 << 32, nil, errNeighborOverflow, 0},
		{"gap one past the id range", one(2), uvarints(0, 1<<32), 1 << 32, nil, errNeighborOverflow, 0},
		// prev+gap wraps to 2 in uint64: decoded as the unsorted [5 2]
		// before the gap was checked ahead of the add.
		{"ten-byte gap that wraps", one(2), uvarints(5, 1<<64-3), 1 << 32, nil, errNeighborOverflow, 0},
		{"first id is a wrapped-size value", one(1), uvarints(1<<64 - 3), 1 << 32, nil, errNeighborOverflow, 0},
		{"eleven-byte varint", one(1), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1 << 32, nil, errTruncatedAdjacency, 0},
		{"id one below the limit", one(2), uvarints(3, 6), 10, []VertexID{3, 9}, nil, 0},
		{"id equal to the limit", one(2), uvarints(3, 7), 10, nil, errNeighborRange, 0},
		{"first id equal to the limit", one(1), uvarints(10), 10, nil, errNeighborRange, 0},
		{"limit beyond the id range is clamped", one(1), uvarints(1 << 32), 1 << 40, nil, errNeighborOverflow, 0},
		{"non-canonical two-byte zero", one(2), []byte{0x80, 0x00, 0x81, 0x00}, 10, []VertexID{0, 1}, nil, 0},
		{"second list fails, offsets not based at zero", []int64{40, 42, 42, 44}, uvarints(1, 2, 4, 6), 10, nil, errNeighborRange, 2},
		{"empty lists between full ones", []int64{7, 7, 9, 9, 10}, uvarints(1, 2, 9), 10, []VertexID{1, 3, 9}, nil, 0},
		{"no lists", nil, []byte{1, 2, 3}, 10, nil, nil, 0},
	} {
		got, consumed, list, err := checkAgainstReference(t, tc.offsets, tc.buf, tc.limit)
		if err != tc.err || list != tc.list {
			t.Errorf("%s: err = %v at list %d, want %v at list %d", tc.name, err, list, tc.err, tc.list)
			continue
		}
		if err != nil {
			continue
		}
		if len(tc.offsets) > 0 && consumed != len(tc.buf) {
			t.Errorf("%s: consumed %d of %d bytes", tc.name, consumed, len(tc.buf))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: ids %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// referenceSkip is SkipCompressedAdjacency one binary.Uvarint at a time.
func referenceSkip(buf []byte, n int64) (int, error) {
	off := 0
	for ; n > 0; n-- {
		_, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return 0, errTruncatedAdjacency
		}
		off += k
	}
	return off, nil
}

// checkSkip skips the first n varints of buf both ways and requires the
// same bytes and the same error.
func checkSkip(t *testing.T, buf []byte, n int64) {
	t.Helper()
	got, err := SkipCompressedAdjacency(buf, n)
	want, wantErr := referenceSkip(buf, n)
	if got != want || err != wantErr {
		t.Fatalf("skip %d of %x: (%d, %v), reference (%d, %v)", n, buf, got, err, want, wantErr)
	}
}

// TestSkipCompressedAdjacency pins the skip's framing at the word
// boundaries its eight-byte path cuts: varints of one to ten bytes that
// end in the first word, the second or the buffer's last bytes; ten- and
// eleven-byte varints, which binary.Uvarint takes and refuses; runs of
// eight and more continuation bytes; and a varint cut off by the end.
func TestSkipCompressedAdjacency(t *testing.T) {
	long := func(k int) []byte { // a k-byte varint of 0
		b := make([]byte, k)
		for i := range b[:k-1] {
			b[i] = 0x80
		}
		return b
	}
	over := append(long(9), 0x80, 0x00)  // eleven bytes
	tenth := append(long(9), 0x80, 0x02) // ten bytes, the last above 1
	for _, buf := range [][]byte{
		nil,
		uvarints(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
		uvarints(300, 70000, 1, 2_000_000, 1<<28, 5, 1<<35, 1<<63),
		append(append(uvarints(1, 2, 3), long(10)...), uvarints(4, 5)...),
		append(append(uvarints(7), long(9)...), 1),
		append(uvarints(1, 2), over...),
		append(uvarints(1, 2), tenth...),
		append(uvarints(1, 2, 3, 4, 5, 6, 7), 0x80),
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	} {
		for n := int64(0); n <= int64(len(buf))+1; n++ {
			checkSkip(t, buf, n)
		}
	}
}

// FuzzDecodeCompressedAdjacency holds the decoder's inline varint paths
// to referenceDecode on arbitrary bytes: the same ids, the same bytes
// consumed, the same failing list and the same error, for any split of
// the ids into two lists and any limit — and the skip to referenceSkip
// over the same ids.
func FuzzDecodeCompressedAdjacency(f *testing.F) {
	f.Add(uvarints(1, 4, 4), uint8(3), uint8(1), uint32(16))
	f.Add(uvarints(5, 1<<64-3), uint8(2), uint8(0), uint32(0))
	f.Add(uvarints(0, 0xFFFFFFFF), uint8(2), uint8(2), uint32(0))
	f.Add(uvarints(300, 70000, 1, 2_000_000, 1<<28), uint8(5), uint8(2), uint32(0))
	f.Add([]byte{0x80, 0x80, 0x01, 0xff}, uint8(2), uint8(1), uint32(1<<20))
	f.Add([]byte{0x80}, uint8(1), uint8(0), uint32(8))
	f.Fuzz(func(t *testing.T, buf []byte, count, split uint8, limit32 uint32) {
		limit := uint64(limit32)
		if limit == 0 {
			limit = 1 << 32
		}
		if split > count {
			split = count
		}
		checkAgainstReference(t, []int64{0, int64(split), int64(count)}, buf, limit)
		checkSkip(t, buf, int64(count))
	})
}
