// Package store implements the out-of-core partition container: graphs
// too large for RAM live on disk in the gcsr2 segment format and stream
// through a budgeted tier of decompressed segments — the "local memory"
// tier of the paper's disaggregated architecture, with segment misses
// standing in for far-memory fetches. A miss loads its segment while the
// budget has room; once it is full, a miss reads through instead: it
// decodes only the lists the caller will read into a lent buffer and
// leaves the resident set as it is. Every budgeted caller pins segments
// in ascending vertex order, cycle after cycle, and for that traffic
// keeping every resident segment is Belady's choice.
//
// The gcsr2 container layers the varint-delta adjacency codec from
// internal/graph and the checksummed-container conventions from
// internal/gio into a seekable layout: a fixed header, a sequence of
// independently checksummed segment payloads, and a trailing index, so a
// reader can resolve any vertex's adjacency after loading only the
// offsets — never the whole edge array.
//
// Layout (little-endian throughout):
//
//	header   [24]byte
//	  magic    [4]byte  "GCS2"
//	  version  uint32   1
//	  flags    uint32   bit0 = weighted
//	  nVerts   uint64
//	  crc32    uint32   (IEEE, over the 20 bytes above)
//	segment payloads, back to back
//	  per segment: varint-delta adjacency of vertices [first, first+count),
//	  then, if weighted, edgeCount raw float32 weights
//	index
//	  nEdges   uint64
//	  nSegs    uint64
//	  iflags   uint32   bit0 = all weights non-negative
//	  degrees  nVerts × uvarint
//	  segments nSegs × {first u64, count u64, edges u64, off u64, len u64, crc u32}
//	  crc32    uint32   (IEEE, over the index bytes above)
//	footer   [16]byte
//	  indexLen uint64   (index bytes including its crc)
//	  magic    [8]byte  "GCS2TRLR"
//
// Everything mutable at write time (edge count, segment table, the
// non-negative-weights flag) lives in the trailing index, so the writer
// streams the container in one pass with no backpatching — the property
// that lets the external-sort builder emit scale-factor-100+ containers
// without holding the edge list.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	containerMagic = "GCS2"
	footerMagic    = "GCS2TRLR"
	formatVersion  = 1

	headerSize = 24
	footerSize = 16
	segRowSize = 8*5 + 4 // five u64 fields + payload crc

	flagWeighted = 1 << 0

	iflagNonNegWeights = 1 << 0

	// DefaultSegmentBytes is the decompressed-size target at which the
	// writer closes a segment (~1 MiB of edge ids — small enough that a
	// tier at a few percent of the graph holds many segments, large
	// enough that varint decode amortizes).
	DefaultSegmentBytes = 1 << 20
)

// ErrBadContainer reports a structurally malformed gcsr2 container
// (bad magic, impossible counts, out-of-bounds segment table).
var ErrBadContainer = errors.New("store: bad gcsr2 container")

// ErrCorrupt reports a container whose structure parsed but whose bytes
// fail a checksum or decode to impossible values — a truncated or
// bit-flipped file.
var ErrCorrupt = errors.New("store: corrupt gcsr2 container")

// ieeeCRC is the container's checksum everywhere a region carries one.
func ieeeCRC(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// decodeFloat32s fills dst from the little-endian float32s at
// p[:4*len(dst)]. Four at a time: one length test then covers four
// loads, where the plain loop pays a bounds check per weight (a third of
// the time on the segment-miss path, where this runs once per edge).
func decodeFloat32s(dst []float32, p []byte) {
	for len(dst) >= 4 && len(p) >= 16 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(p[0:4]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(p[4:8]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(p[8:12]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(p[12:16]))
		dst, p = dst[4:], p[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

// segMeta is one row of the segment table: the vertex range a segment
// covers and where its payload lives in the file.
type segMeta struct {
	first uint64 // first vertex in the segment
	count uint64 // vertices covered
	edges uint64 // out-edges covered
	off   uint64 // payload offset from file start
	len   uint64 // payload length in bytes
	crc   uint32 // IEEE CRC of the payload
}

// header is the decoded fixed header.
type header struct {
	weighted bool
	nVerts   uint64
}

// encodeHeader renders the 24-byte header.
func encodeHeader(h header) []byte {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, containerMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	flags := uint32(0)
	if h.weighted {
		flags |= flagWeighted
	}
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, h.nVerts)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeHeader parses and verifies the fixed header.
func decodeHeader(p []byte) (header, error) {
	if len(p) < headerSize {
		return header{}, fmt.Errorf("%w: %d header bytes, want %d", ErrBadContainer, len(p), headerSize)
	}
	p = p[:headerSize]
	want := binary.LittleEndian.Uint32(p[20:])
	if got := crc32.ChecksumIEEE(p[:20]); got != want {
		return header{}, fmt.Errorf("%w: header checksum %08x, computed %08x", ErrCorrupt, want, got)
	}
	if string(p[:4]) != containerMagic {
		return header{}, fmt.Errorf("%w: magic %q", ErrBadContainer, p[:4])
	}
	if v := binary.LittleEndian.Uint32(p[4:]); v != formatVersion {
		return header{}, fmt.Errorf("%w: unsupported version %d", ErrBadContainer, v)
	}
	flags := binary.LittleEndian.Uint32(p[8:])
	h := header{
		weighted: flags&flagWeighted != 0,
		nVerts:   binary.LittleEndian.Uint64(p[12:]),
	}
	if h.nVerts > math.MaxUint32 {
		return header{}, fmt.Errorf("%w: %d vertices exceeds the uint32 id range", ErrBadContainer, h.nVerts)
	}
	return h, nil
}

// encodeFooter renders the 16-byte footer.
func encodeFooter(indexLen uint64) []byte {
	buf := make([]byte, 0, footerSize)
	buf = binary.LittleEndian.AppendUint64(buf, indexLen)
	return append(buf, footerMagic...)
}

// index is the decoded trailing index.
type index struct {
	nEdges  uint64
	nonNeg  bool
	offsets []int64 // nVerts+1 prefix sums of the degree list
	segs    []segMeta
}

// encodeIndex renders the index (degrees come as an offsets array the
// writer maintained incrementally) and appends its checksum.
func encodeIndex(nEdges uint64, nonNeg bool, offsets []int64, segs []segMeta) []byte {
	buf := make([]byte, 0, 16+4+len(offsets)*2+len(segs)*segRowSize+4)
	buf = binary.LittleEndian.AppendUint64(buf, nEdges)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(segs)))
	iflags := uint32(0)
	if nonNeg {
		iflags |= iflagNonNegWeights
	}
	buf = binary.LittleEndian.AppendUint32(buf, iflags)
	for v := 0; v+1 < len(offsets); v++ {
		buf = binary.AppendUvarint(buf, uint64(offsets[v+1]-offsets[v]))
	}
	for _, s := range segs {
		buf = binary.LittleEndian.AppendUint64(buf, s.first)
		buf = binary.LittleEndian.AppendUint64(buf, s.count)
		buf = binary.LittleEndian.AppendUint64(buf, s.edges)
		buf = binary.LittleEndian.AppendUint64(buf, s.off)
		buf = binary.LittleEndian.AppendUint64(buf, s.len)
		buf = binary.LittleEndian.AppendUint32(buf, s.crc)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeIndex parses and validates the index region against the header
// and the payload bounds [headerSize, payloadEnd). Every count is checked
// against the bytes that must carry it before any allocation: the index
// checksum can be forged (fuzzers do), so nothing here may trust a count
// enough to make a multi-gigabyte slice from it.
func decodeIndex(p []byte, h header, payloadEnd uint64, weighted bool) (*index, error) {
	if len(p) < 8+8+4+4 {
		return nil, fmt.Errorf("%w: index %d bytes, want >= 24", ErrBadContainer, len(p))
	}
	body, trailer := p[:len(p)-4], p[len(p)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: index checksum %08x, computed %08x", ErrCorrupt, want, got)
	}
	ix := &index{nEdges: binary.LittleEndian.Uint64(body)}
	nSegs := binary.LittleEndian.Uint64(body[8:])
	iflags := binary.LittleEndian.Uint32(body[16:])
	ix.nonNeg = iflags&iflagNonNegWeights != 0
	body = body[20:]

	// Bounds before allocation: each degree takes >= 1 byte, each segment
	// row exactly segRowSize.
	if h.nVerts > uint64(len(body)) || nSegs > uint64(len(body))/segRowSize {
		return nil, fmt.Errorf("%w: index counts V=%d S=%d exceed %d index bytes", ErrBadContainer, h.nVerts, nSegs, len(body))
	}
	ix.offsets = make([]int64, h.nVerts+1)
	off := 0
	for v := uint64(0); v < h.nVerts; v++ {
		d, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated degree %d", ErrBadContainer, v)
		}
		off += n
		next := ix.offsets[v] + int64(d)
		if next < ix.offsets[v] {
			return nil, fmt.Errorf("%w: degree prefix sum overflows at vertex %d", ErrBadContainer, v)
		}
		ix.offsets[v+1] = next
	}
	if uint64(ix.offsets[h.nVerts]) != ix.nEdges {
		return nil, fmt.Errorf("%w: degrees sum to %d, index says %d edges", ErrBadContainer, ix.offsets[h.nVerts], ix.nEdges)
	}
	if uint64(len(body)-off) != nSegs*segRowSize {
		return nil, fmt.Errorf("%w: segment table %d bytes, want %d", ErrBadContainer, len(body)-off, nSegs*segRowSize)
	}
	ix.segs = make([]segMeta, nSegs)
	for i := range ix.segs {
		row := body[off+i*segRowSize:]
		ix.segs[i] = segMeta{
			first: binary.LittleEndian.Uint64(row),
			count: binary.LittleEndian.Uint64(row[8:]),
			edges: binary.LittleEndian.Uint64(row[16:]),
			off:   binary.LittleEndian.Uint64(row[24:]),
			len:   binary.LittleEndian.Uint64(row[32:]),
			crc:   binary.LittleEndian.Uint32(row[40:]),
		}
	}

	// The segment table must tile [0, nVerts) contiguously and its
	// payloads must sit, in order and without overlap, inside the payload
	// region.
	nextVertex, nextOff := uint64(0), uint64(headerSize)
	for i, s := range ix.segs {
		if s.first != nextVertex || s.count == 0 {
			return nil, fmt.Errorf("%w: segment %d covers [%d,%d), want start %d and count > 0", ErrBadContainer, i, s.first, s.first+s.count, nextVertex)
		}
		if s.count > h.nVerts-s.first {
			return nil, fmt.Errorf("%w: segment %d vertex range exceeds %d vertices", ErrBadContainer, i, h.nVerts)
		}
		wantEdges := uint64(ix.offsets[s.first+s.count] - ix.offsets[s.first])
		if s.edges != wantEdges {
			return nil, fmt.Errorf("%w: segment %d claims %d edges, degrees say %d", ErrBadContainer, i, s.edges, wantEdges)
		}
		if s.off < nextOff || s.len > payloadEnd || s.off > payloadEnd-s.len {
			return nil, fmt.Errorf("%w: segment %d payload [%d,%d) outside [%d,%d)", ErrBadContainer, i, s.off, s.off+s.len, nextOff, payloadEnd)
		}
		minLen := s.edges // >= 1 byte per encoded edge
		if weighted {
			minLen += s.edges * 4
		}
		if s.len < minLen {
			return nil, fmt.Errorf("%w: segment %d payload %d bytes cannot carry %d edges", ErrBadContainer, i, s.len, s.edges)
		}
		nextVertex = s.first + s.count
		nextOff = s.off + s.len
	}
	if nextVertex != h.nVerts {
		return nil, fmt.Errorf("%w: segments cover %d of %d vertices", ErrBadContainer, nextVertex, h.nVerts)
	}
	return ix, nil
}
