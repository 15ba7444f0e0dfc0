package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/graph"
)

// Options configures how much of the container may live decompressed in
// memory at once.
type Options struct {
	// LocalBytes is the local-memory tier budget in decompressed bytes;
	// <= 0 means unlimited (every segment stays resident once loaded).
	// Pinned segments never evict, so a pathologically small budget can
	// be exceeded by the pins themselves — the tier then holds exactly
	// the pinned set.
	LocalBytes int64
}

// Stats is a snapshot of the tier's behavior: segment hits and misses,
// evictions, the compressed bytes fetched from the container on misses
// (the far-memory traffic the paper's Figure 5/6 sweeps charge), and the
// decompressed footprint of the resident set.
type Stats struct {
	Hits, Misses, Evictions int64
	// FarBytes is the compressed payload bytes read from the container —
	// every miss pays its segment's full payload.
	FarBytes int64
	// ResidentBytes and PeakResidentBytes track the decompressed local
	// tier (current and high-water).
	ResidentBytes, PeakResidentBytes int64
	// Pins counts currently outstanding Pin handles.
	Pins int64
}

// frame is one segment's residency state: the decompressed buffers and
// the pin count.
type frame struct {
	edges    []graph.VertexID
	weights  []float32
	refs     int32
	resident bool
}

// segBufs is a recycled pair of decompressed buffers; evicted frames
// donate theirs so the steady-state miss path allocates nothing.
type segBufs struct {
	edges   []graph.VertexID
	weights []float32
}

// Store is an open gcsr2 container: resident offsets, a lazy segment
// tier, and the source holding the bytes. Safe for concurrent use; each
// successful Pin must be paired with Release on the returned handle.
//
// A Store is an adjacency source for the kernel engine
// (kernels.Source): Vertices is the resident vertex side, Pin lends the
// edge list one segment at a time. It stores out-edges only, so the
// engine never pulls over it.
type Store struct {
	src      source
	weighted bool
	nonNeg   bool
	offsets  []int64
	view     *graph.Graph // offsets-only vertex side
	segs     []segMeta

	maxSegEdges int64 // largest segment edge count (sizes recycled buffers)
	maxSegBytes int64 // largest compressed payload (sizes the read scratch)

	mu       sync.Mutex
	frames   []frame
	free     []segBufs
	scratch  []byte   // pread buffer, reused across loads
	idle     []uint64 // bit i set: frame i is resident and unpinned (setIdle)
	budget   int64
	resident int64
	stats    Stats

	digestOnce sync.Once
	digest     string
	digestErr  error
}

// OpenBytes opens a container held in memory (tests, fuzzing, and
// network-received snapshots).
func OpenBytes(data []byte, opts Options) (*Store, error) {
	return open(&bytesSource{data: data}, opts)
}

// OpenFile opens a container file, mmap-backed where the platform
// supports it.
func OpenFile(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := openSource(f)
	if err != nil {
		return nil, err
	}
	st, err := open(src, opts)
	if err != nil {
		_ = src.Close()
		return nil, err
	}
	return st, nil
}

// open parses header, footer, and index, leaving every segment cold.
func open(src source, opts Options) (*Store, error) {
	sz := src.size()
	if sz < headerSize+footerSize+24 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadContainer, sz)
	}
	hb, err := src.view(0, headerSize, nil)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	fb, err := src.view(sz-footerSize, footerSize, nil)
	if err != nil {
		return nil, err
	}
	if string(fb[8:16]) != footerMagic {
		return nil, fmt.Errorf("%w: footer magic %q", ErrBadContainer, fb[8:16])
	}
	indexLen := int64(uint64(fb[0]) | uint64(fb[1])<<8 | uint64(fb[2])<<16 | uint64(fb[3])<<24 |
		uint64(fb[4])<<32 | uint64(fb[5])<<40 | uint64(fb[6])<<48 | uint64(fb[7])<<56)
	if indexLen < 0 || indexLen > sz-headerSize-footerSize {
		return nil, fmt.Errorf("%w: index length %d outside container", ErrBadContainer, indexLen)
	}
	indexOff := sz - footerSize - indexLen
	ib, err := src.view(indexOff, indexLen, nil)
	if err != nil {
		return nil, err
	}
	ix, err := decodeIndex(ib, h, uint64(indexOff), h.weighted)
	if err != nil {
		return nil, err
	}
	view, err := graph.NewVertexView(ix.offsets)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadContainer, err)
	}
	st := &Store{
		src:      src,
		weighted: h.weighted,
		nonNeg:   ix.nonNeg,
		offsets:  ix.offsets,
		view:     view,
		segs:     ix.segs,
		frames:   make([]frame, len(ix.segs)),
		idle:     make([]uint64, (len(ix.segs)+63)/64),
		budget:   opts.LocalBytes,
	}
	for i := range st.frames {
		if e := int64(ix.segs[i].edges); e > st.maxSegEdges {
			st.maxSegEdges = e
		}
		if l := int64(ix.segs[i].len); l > st.maxSegBytes {
			st.maxSegBytes = l
		}
	}
	return st, nil
}

// NumVertices returns the container's vertex count.
func (s *Store) NumVertices() int { return len(s.offsets) - 1 }

// NumEdges returns the container's directed edge count.
func (s *Store) NumEdges() int64 { return s.offsets[len(s.offsets)-1] }

// Weighted reports whether the container carries edge weights.
func (s *Store) Weighted() bool { return s.weighted }

// NonNegativeWeights reports whether every stored weight is >= 0 — the
// flag the writer computed while it had the weights in hand, so
// validating a kernel costs no segment touches (vacuously true for
// unweighted containers).
func (s *Store) NonNegativeWeights() bool { return s.nonNeg }

// NumSegments returns the segment count.
func (s *Store) NumSegments() int { return len(s.segs) }

// OutDegree returns vertex v's out-degree from the resident offsets.
func (s *Store) OutDegree(v graph.VertexID) int64 {
	return s.offsets[v+1] - s.offsets[v]
}

// Vertices returns an offsets-only graph.Graph over the container:
// kernel callbacks (InitialValue, Apply, InitialFrontier) consult only
// the vertex side, so the view lets them run unmodified while adjacency
// stays in the store.
func (s *Store) Vertices() *graph.Graph { return s.view }

// Stats returns a snapshot of the tier counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.ResidentBytes = s.resident
	return out
}

// segFor locates the segment containing v by binary search over the
// segment table (open-coded: Pin is the tier's hot path and must not
// allocate, closures included).
func (s *Store) segFor(v graph.VertexID) int32 {
	lo, hi := 0, len(s.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.segs[mid].first+s.segs[mid].count > uint64(v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(lo)
}

// Pin loads (if necessary) and pins the segment covering v, returning a
// handle for its adjacency. Pinned segments never evict, so every Pin is
// paired with the handle's Release; Close refuses while pins are
// outstanding, which is how the store's and the engines' tests hold it.
func (s *Store) Pin(v graph.VertexID) (graph.Segment, error) {
	if int64(v) >= int64(s.NumVertices()) {
		return graph.Segment{}, fmt.Errorf("store: vertex %d outside container with %d vertices", v, s.NumVertices())
	}
	idx := s.segFor(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[idx]
	if fr.resident {
		s.stats.Hits++
		s.setIdle(idx, false)
	} else {
		if err := s.load(idx); err != nil {
			return graph.Segment{}, err
		}
	}
	fr.refs++
	s.stats.Pins++
	m := &s.segs[idx]
	sg := graph.Segment{
		First: graph.VertexID(m.first),
		End:   graph.VertexID(m.first + m.count),
		Base:  s.offsets[m.first],
		Edges: fr.edges,
		Owner: (*tier)(s),
		Frame: idx,
	}
	if s.weighted {
		sg.Weights = fr.weights
	}
	return sg, nil
}

// tier is the Store as the owner of the segments it lends: the Unpin
// that graph.Segment.Release calls back, kept off Store's own method set
// so Release on the handle stays the only way to drop a pin.
type tier Store

// Unpin drops one pin; at zero the frame becomes evictable.
func (t *tier) Unpin(idx int32) {
	s := (*Store)(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[idx]
	if fr.refs <= 0 || !fr.resident {
		//lint:ignore panicpath unbalanced Release is a caller bug; corrupting the refcount silently would be worse
		panic(fmt.Sprintf("store: Release of segment %d without matching Pin", idx))
	}
	fr.refs--
	s.stats.Pins--
	if fr.refs == 0 {
		s.setIdle(idx, true)
	}
}

// setIdle records whether frame idx is resident and unpinned — a
// candidate for eviction.
func (s *Store) setIdle(idx int32, idle bool) {
	if idle {
		s.idle[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		s.idle[idx>>6] &^= 1 << (uint(idx) & 63)
	}
}

// segCost is the decompressed footprint of segment idx.
func (s *Store) segCost(idx int32) int64 {
	c := int64(s.segs[idx].edges) * 4
	if s.weighted {
		c += int64(s.segs[idx].edges) * 4
	}
	return c
}

// load fetches, verifies, and decompresses segment idx under s.mu,
// evicting to fit the budget first. Every budgeted caller pins segments
// in ascending vertex order and returns only after a full cycle, so the
// victim is the evictable frame that sweep reaches last
// (graph.SweepVictim) — Belady's choice for this traffic, where LRU
// always evicts the frame needed soonest. Buffers come from the freelist
// when an eviction has donated a pair, so a warmed tier's miss path
// performs no allocation.
func (s *Store) load(idx int32) error {
	need := s.segCost(idx)
	if s.budget > 0 {
		for s.resident+need > s.budget {
			victim := graph.SweepVictim(s.idle, idx)
			if victim < 0 {
				break // everything resident is pinned
			}
			s.evict(victim)
		}
	}
	m := &s.segs[idx]
	payload, err := s.src.view(int64(m.off), int64(m.len), s.readScratch())
	if err != nil {
		return err
	}
	if got := ieeeCRC(payload); got != m.crc {
		return fmt.Errorf("%w: segment %d checksum %08x, computed %08x", ErrCorrupt, idx, m.crc, got)
	}

	bufs := s.takeBufs()
	edges := bufs.edges[:m.edges]
	adjLen := int64(m.len)
	if s.weighted {
		adjLen -= int64(m.edges) * 4
	}
	lists := s.offsets[m.first : m.first+m.count+1]
	consumed, list, err := graph.DecodeCompressedAdjacency(edges, lists, payload[:adjLen], uint64(s.NumVertices()))
	if err == nil && int64(consumed) != adjLen {
		list, err = int(m.count)-1, errTrailingAdjacency
	}
	if err != nil {
		s.free = append(s.free, bufs)
		return fmt.Errorf("%w: segment %d vertex %d: %v", ErrCorrupt, idx, m.first+uint64(list), err)
	}
	var weights []float32
	if s.weighted {
		weights = bufs.weights[:m.edges]
		decodeFloat32s(weights, payload[adjLen:])
	}

	fr := &s.frames[idx]
	fr.edges = edges
	fr.weights = weights
	fr.resident = true
	s.resident += need
	if s.resident > s.stats.PeakResidentBytes {
		s.stats.PeakResidentBytes = s.resident
	}
	s.stats.Misses++
	s.stats.FarBytes += int64(m.len)
	return nil
}

// errTrailingAdjacency is the one adjacency failure the codec cannot
// see: its bytes ran past the segment's last vertex.
var errTrailingAdjacency = errors.New("adjacency bytes left over after the segment's last vertex")

// evict drops an unpinned resident frame, donating its buffers.
func (s *Store) evict(idx int32) {
	fr := &s.frames[idx]
	s.setIdle(idx, false)
	s.free = append(s.free, segBufs{edges: fr.edges, weights: fr.weights})
	fr.edges, fr.weights = nil, nil
	fr.resident = false
	s.resident -= s.segCost(idx)
	s.stats.Evictions++
}

// takeBufs pops a donated buffer pair or allocates one sized for the
// largest segment (so any segment fits any recycled pair).
func (s *Store) takeBufs() segBufs {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	b := segBufs{edges: make([]graph.VertexID, 0, s.maxSegEdges)}
	if s.weighted {
		b.weights = make([]float32, 0, s.maxSegEdges)
	}
	return b
}

// readScratch returns the pread scratch buffer (unused by mmap sources).
func (s *Store) readScratch() []byte {
	if s.scratch == nil {
		s.scratch = make([]byte, s.maxSegBytes)
	}
	return s.scratch
}

// Digest returns the SHA-256 of the container bytes ("sha256:<hex>") —
// the content address ndpserve snapshots key on. Computed once, lazily.
func (s *Store) Digest() (string, error) {
	s.digestOnce.Do(func() {
		h := sha256.New()
		const chunk = 1 << 20
		scratch := make([]byte, chunk)
		sz := s.src.size()
		for off := int64(0); off < sz; off += chunk {
			n := int64(chunk)
			if off+n > sz {
				n = sz - off
			}
			p, err := s.src.view(off, n, scratch)
			if err != nil {
				s.digestErr = err
				return
			}
			_, _ = h.Write(p) // hash.Hash.Write never errors
		}
		s.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	})
	return s.digest, s.digestErr
}

// Materialize decodes the full container into an in-memory graph — the
// bridge back to the in-RAM engines (and the equality oracle's other
// side). It bypasses the tier, so resident accounting is unaffected.
func (s *Store) Materialize() (*graph.Graph, error) {
	n := s.NumVertices()
	offsets := make([]int64, n+1)
	copy(offsets, s.offsets)
	edges := make([]graph.VertexID, 0, s.NumEdges())
	var weights []float32
	if s.weighted {
		weights = make([]float32, 0, s.NumEdges())
	}
	for i := range s.segs {
		sg, err := s.Pin(graph.VertexID(s.segs[i].first))
		if err != nil {
			return nil, err
		}
		edges = append(edges, sg.Edges...)
		if s.weighted {
			weights = append(weights, sg.Weights...)
		}
		sg.Release()
	}
	return graph.NewCSR(offsets, edges, weights)
}

// Close releases the source. It fails if pins are outstanding — a leak
// the lifecycle tests treat as a bug.
func (s *Store) Close() error {
	s.mu.Lock()
	pins := s.stats.Pins
	s.mu.Unlock()
	if pins != 0 {
		return fmt.Errorf("store: Close with %d outstanding segment pins", pins)
	}
	return s.src.Close()
}
