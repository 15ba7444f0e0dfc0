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
	// Misses counts loads and weight upgrades: a weighted Pin of a frame
	// PinEdges loaded is a miss too.
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

// frame is one segment's residency state: the decompressed columns it
// holds and the pin count. A resident frame always holds the edge ids;
// it holds the weight column too once a weighted Pin has asked for it.
type frame struct {
	edges      []graph.VertexID
	weights    []float32
	refs       int32
	resident   bool
	hasWeights bool
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

	mu     sync.Mutex
	frames []frame
	// freeEdges and freeWeights hold the buffers evicted frames donate,
	// one list per column, so a warmed tier's miss path allocates nothing.
	freeEdges   [][]graph.VertexID
	freeWeights [][]float32
	scratch     []byte   // pread buffer, reused across loads
	idle        []uint64 // bit i set: frame i is resident and unpinned (setIdle)
	budget      int64
	resident    int64
	stats       Stats

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
// handle for its adjacency: the edge ids and, in a weighted container,
// the weights. Pinned segments never evict, so every Pin is paired with
// the handle's Release; Close refuses while pins are outstanding, which
// is how the store's and the engines' tests hold it.
func (s *Store) Pin(v graph.VertexID) (graph.Segment, error) {
	return s.pin(v, s.weighted)
}

// PinEdges is Pin for a reader that never looks at a weight: the handle's
// Weights is nil, and a frame loaded for it holds, and is charged to the
// budget for, the edge ids alone — half a weighted segment's footprint.
// A later Pin of that frame adds the weight column in place.
func (s *Store) PinEdges(v graph.VertexID) (graph.Segment, error) {
	return s.pin(v, false)
}

// pin is Pin and PinEdges: weights says whether the handle lends the
// weight column.
func (s *Store) pin(v graph.VertexID, weights bool) (graph.Segment, error) {
	if int64(v) >= int64(s.NumVertices()) {
		return graph.Segment{}, fmt.Errorf("store: vertex %d outside container with %d vertices", v, s.NumVertices())
	}
	idx := s.segFor(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[idx]
	switch {
	case !fr.resident:
		if err := s.load(idx, weights); err != nil {
			return graph.Segment{}, err
		}
	case weights && !fr.hasWeights:
		if err := s.addWeights(idx); err != nil {
			return graph.Segment{}, err
		}
	default:
		s.stats.Hits++
		s.setIdle(idx, false)
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
	if weights {
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

// segCost is the decompressed footprint of segment idx holding its edge
// ids and, when weights is set and the container is weighted, its
// weights: 4 B an edge for each column.
func (s *Store) segCost(idx int32, weights bool) int64 {
	c := int64(s.segs[idx].edges) * 4
	if weights && s.weighted {
		c += int64(s.segs[idx].edges) * 4
	}
	return c
}

// load fetches, verifies, and decompresses segment idx under s.mu — the
// edge ids, and the weights too when weights is set — evicting to fit
// the budget first.
func (s *Store) load(idx int32, weights bool) error {
	need := s.segCost(idx, weights)
	s.makeRoom(idx, need)
	n := s.segs[idx].edges
	edges := s.takeEdges()[:n]
	var wts []float32
	if weights {
		wts = s.takeWeights()[:n]
	}
	if err := s.decode(idx, s.readScratch(), edges, wts); err != nil {
		s.freeEdges = append(s.freeEdges, edges)
		if weights {
			s.freeWeights = append(s.freeWeights, wts)
		}
		return err
	}
	fr := &s.frames[idx]
	fr.edges, fr.weights, fr.hasWeights = edges, wts, weights
	fr.resident = true
	s.charge(idx, need)
	return nil
}

// addWeights adds the weight column to resident edge-only frame idx, in
// place: handles already lent on the frame read only its edge ids, which
// stay where they are. It fetches the whole payload again and checks its
// CRC, so it counts as a miss and pays the payload in FarBytes. On
// failure the frame is as it was: edge ids only, and evictable if
// nothing pins it.
func (s *Store) addWeights(idx int32) error {
	fr := &s.frames[idx]
	s.setIdle(idx, false) // the frame must not be its own victim
	need := s.segCost(idx, true) - s.segCost(idx, false)
	s.makeRoom(idx, need)
	wts := s.takeWeights()[:s.segs[idx].edges]
	if err := s.decode(idx, s.readScratch(), nil, wts); err != nil {
		s.freeWeights = append(s.freeWeights, wts)
		if fr.refs == 0 {
			s.setIdle(idx, true)
		}
		return err
	}
	fr.weights, fr.hasWeights = wts, true
	s.charge(idx, need)
	return nil
}

// makeRoom evicts until need more bytes fit the budget beside the
// resident set, or nothing unpinned is left to evict. Every budgeted
// caller pins segments in ascending vertex order and returns only after a
// full cycle, so the victim is the evictable frame that sweep reaches
// last (graph.SweepVictim) — Belady's choice for this traffic, where LRU
// always evicts the frame needed soonest.
func (s *Store) makeRoom(idx int32, need int64) {
	if s.budget <= 0 {
		return
	}
	for s.resident+need > s.budget {
		victim := graph.SweepVictim(s.idle, idx)
		if victim < 0 {
			return // everything resident is pinned
		}
		s.evict(victim)
	}
}

// charge books a miss on segment idx that made need bytes resident.
func (s *Store) charge(idx int32, need int64) {
	s.resident += need
	if s.resident > s.stats.PeakResidentBytes {
		s.stats.PeakResidentBytes = s.resident
	}
	s.stats.Misses++
	s.stats.FarBytes += int64(s.segs[idx].len)
}

// decode reads segment idx's payload (through scratch unless the source
// is mapped), checks the CRC of the whole payload whichever columns are
// asked for, and decodes the edge ids into edges unless it is nil and the
// weights into weights unless it is nil; each holds the segment's edge
// count. Every read of a segment — a tier miss, a weight upgrade,
// Materialize — is a call to it.
func (s *Store) decode(idx int32, scratch []byte, edges []graph.VertexID, weights []float32) error {
	m := &s.segs[idx]
	payload, err := s.src.view(int64(m.off), int64(m.len), scratch)
	if err != nil {
		return err
	}
	if got := ieeeCRC(payload); got != m.crc {
		return fmt.Errorf("%w: segment %d checksum %08x, computed %08x", ErrCorrupt, idx, m.crc, got)
	}
	adjLen := int64(m.len)
	if s.weighted {
		adjLen -= int64(m.edges) * 4
	}
	if edges != nil {
		lists := s.offsets[m.first : m.first+m.count+1]
		consumed, list, err := graph.DecodeCompressedAdjacency(edges, lists, payload[:adjLen], uint64(s.NumVertices()))
		if err == nil && int64(consumed) != adjLen {
			list, err = int(m.count)-1, errTrailingAdjacency
		}
		if err != nil {
			return fmt.Errorf("%w: segment %d vertex %d: %v", ErrCorrupt, idx, m.first+uint64(list), err)
		}
	}
	if weights != nil {
		decodeFloat32s(weights, payload[adjLen:])
	}
	return nil
}

// errTrailingAdjacency is the one adjacency failure the codec cannot
// see: its bytes ran past the segment's last vertex.
var errTrailingAdjacency = errors.New("adjacency bytes left over after the segment's last vertex")

// evict drops an unpinned resident frame, both columns, donating its
// buffers.
func (s *Store) evict(idx int32) {
	fr := &s.frames[idx]
	s.setIdle(idx, false)
	s.freeEdges = append(s.freeEdges, fr.edges)
	if fr.hasWeights {
		s.freeWeights = append(s.freeWeights, fr.weights)
	}
	s.resident -= s.segCost(idx, fr.hasWeights)
	*fr = frame{}
	s.stats.Evictions++
}

// takeEdges pops a donated edge-id buffer or allocates one sized for the
// largest segment (so any segment fits any recycled buffer). Before it
// allocates it drops a spare weight buffer, if there is one, and
// takeWeights does the same the other way round: the buffers the tier
// retains then stay at what the budget holds.
func (s *Store) takeEdges() []graph.VertexID {
	if n := len(s.freeEdges); n > 0 {
		b := s.freeEdges[n-1]
		s.freeEdges = s.freeEdges[:n-1]
		return b
	}
	if n := len(s.freeWeights); n > 0 {
		s.freeWeights[n-1] = nil
		s.freeWeights = s.freeWeights[:n-1]
	}
	return make([]graph.VertexID, 0, s.maxSegEdges)
}

// takeWeights is takeEdges for the weight column.
func (s *Store) takeWeights() []float32 {
	if n := len(s.freeWeights); n > 0 {
		b := s.freeWeights[n-1]
		s.freeWeights = s.freeWeights[:n-1]
		return b
	}
	if n := len(s.freeEdges); n > 0 {
		s.freeEdges[n-1] = nil
		s.freeEdges = s.freeEdges[:n-1]
	}
	return make([]float32, 0, s.maxSegEdges)
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
// side). It bypasses the tier: each segment decodes straight into the
// output arrays, so no frame is pinned, loaded or evicted and Stats do
// not move.
func (s *Store) Materialize() (*graph.Graph, error) {
	offsets := make([]int64, len(s.offsets))
	copy(offsets, s.offsets)
	edges := make([]graph.VertexID, s.NumEdges())
	var weights []float32
	if s.weighted {
		weights = make([]float32, s.NumEdges())
	}
	scratch := make([]byte, s.maxSegBytes)
	for i := range s.segs {
		m := &s.segs[i]
		lo, hi := s.offsets[m.first], s.offsets[m.first+m.count]
		var wts []float32
		if s.weighted {
			wts = weights[lo:hi]
		}
		if err := s.decode(int32(i), scratch, edges[lo:hi], wts); err != nil {
			return nil, err
		}
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
