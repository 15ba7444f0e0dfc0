package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/graph"
)

// Options configures how much of the container may live decompressed in
// memory at once.
type Options struct {
	// LocalBytes is the local-memory tier budget in decompressed bytes;
	// <= 0 means unlimited (every segment stays resident once loaded).
	// A budgeted tier loads segments while they fit beside one
	// read-through buffer, then reads the rest through that buffer and
	// never evicts, so frames plus buffer stay within it. Only a budget
	// smaller than one buffer, or Pin and PinEdges handles holding more
	// read-throughs at once than it has room for, can exceed it.
	LocalBytes int64
}

// Stats is a snapshot of the tier's behavior: segment hits and misses,
// the compressed bytes fetched from the container on misses (the
// far-memory traffic the paper's Figure 5/6 sweeps charge), and the
// decompressed footprint of the resident set.
type Stats struct {
	// Misses counts every segment read: loads, weight upgrades and
	// read-throughs. ReadThroughs counts the misses that did not load —
	// the tier was full, so the pin decoded the lists it serves into a
	// read-through buffer. A weighted Pin of a frame PinEdges loaded is a
	// miss too.
	Hits, Misses, ReadThroughs int64
	// Evictions is always 0: a full tier reads through instead.
	Evictions int64
	// FarBytes is the compressed payload bytes read from the container —
	// every miss pays its segment's full payload, which the CRC reads.
	FarBytes int64
	// ResidentBytes and PeakResidentBytes track the decompressed local
	// tier, frames and read-through buffers (current and high-water).
	ResidentBytes, PeakResidentBytes int64
	// Pins counts currently outstanding Pin handles.
	Pins int64
}

// frame is one segment's residency state: the decompressed columns it
// holds. A resident frame always holds the edge ids; it holds the weight
// column too once a weighted Pin has asked for it. Frames never leave.
type frame struct {
	edges      []graph.VertexID
	weights    []float32
	resident   bool
	hasWeights bool
}

// Store is an open gcsr2 container: resident offsets, a lazy segment
// tier, and the source holding the bytes. Safe for concurrent use; each
// successful Pin must be paired with Release on the returned handle.
//
// A Store is an adjacency source for the kernel engine
// (kernels.Source): Vertices is the resident vertex side, Pin and
// PinLists lend the edge list one segment at a time. It stores out-edges
// only, so the engine never pulls over it.
type Store struct {
	src      source
	weighted bool
	nonNeg   bool
	offsets  []int64
	view     *graph.Graph // offsets-only vertex side
	segs     []segMeta

	maxSegEdges int64 // largest segment edge count (sizes read-through buffers)
	maxSegBytes int64 // largest compressed payload (sizes the read scratch)

	mu       sync.Mutex
	frames   []frame
	scratch  []byte // pread buffer, reused across reads
	budget   int64
	resident int64 // frames and read-through buffers
	stats    Stats

	// Read-through buffers. spare is the one kept between read-throughs
	// (nil while lent, or before the first); bufs counts those allocated,
	// each bufCost bytes of the budget. listHolders counts the buffers
	// lent through PinLists, whose holders release before they pin again,
	// so a read-through may wait on bufFree for one of them.
	spare       *readBuf
	bufs        int
	bufCost     int64
	listHolders int
	bufFree     sync.Cond

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
	st.bufCost = st.maxSegEdges * 4
	if st.weighted {
		st.bufCost *= 2
	}
	st.bufFree.L = &st.mu
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

// Pin pins the segment covering v and returns a handle for its whole
// adjacency: the edge ids and, in a weighted container, the weights. A
// hit lends the resident frame; a miss loads the segment while the budget
// has room, and on a full tier reads the whole segment through a lent
// buffer. Every Pin is paired with the handle's Release; Close refuses
// while pins are outstanding, which is how the store's and the engines'
// tests hold it.
func (s *Store) Pin(v graph.VertexID) (graph.Segment, error) {
	return s.pinSegment(v, s.weighted)
}

// PinEdges is Pin for a reader that never looks at a weight: the handle's
// Weights is nil, and a frame loaded for it holds, and is charged to the
// budget for, the edge ids alone — half a weighted segment's footprint.
// A later Pin of that frame adds the weight column in place.
func (s *Store) PinEdges(v graph.VertexID) (graph.Segment, error) {
	return s.pinSegment(v, false)
}

// pinSegment is Pin and PinEdges: every list of v's segment.
func (s *Store) pinSegment(v graph.VertexID, weights bool) (graph.Segment, error) {
	if err := s.checkVertex(v); err != nil {
		return graph.Segment{}, err
	}
	idx := s.segFor(v)
	return s.pin(idx, graph.VertexID(s.segs[idx].first), nil, weights, false)
}

// PinLists pins the segment covering v for a push loop whose frontier
// goes on with rest, the vertices after v, in ascending order; rest nil
// asks for every list of the segment. weights says whether the handle
// lends the weight column. A hit or a load lends the resident frame. On a
// full tier only the lists of v and of the vertices of rest inside the
// segment are decoded, into a read-through buffer: the handle serves
// those and no other vertex's list (rest is read only while it ascends).
//
// The caller holds no other handle of this store while it calls, and
// releases this one before it pins again. That lets a read-through wait
// for a buffer another PinLists caller holds, where Pin would take one
// over the budget.
func (s *Store) PinLists(v graph.VertexID, rest []graph.VertexID, weights bool) (graph.Segment, error) {
	if err := s.checkVertex(v); err != nil {
		return graph.Segment{}, err
	}
	idx := s.segFor(v)
	if rest == nil {
		v = graph.VertexID(s.segs[idx].first)
	}
	return s.pin(idx, v, rest, weights && s.weighted, true)
}

// checkVertex refuses a vertex outside the container.
func (s *Store) checkVertex(v graph.VertexID) error {
	if int64(v) >= int64(s.NumVertices()) {
		return fmt.Errorf("store: vertex %d outside container with %d vertices", v, s.NumVertices())
	}
	return nil
}

// pin serves the lists of segment idx that from and rest name (see
// readLists): from the resident frame on a hit, or after loading the
// frame — or adding its weight column — while the budget has room, and
// through a read-through buffer once it has none. weights says whether
// the handle lends the weight column; lists, that a PinLists caller asks.
func (s *Store) pin(idx int32, from graph.VertexID, rest []graph.VertexID, weights, lists bool) (graph.Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &s.frames[idx]
	switch {
	case fr.resident && (fr.hasWeights || !weights):
		s.stats.Hits++
	case !fr.resident && s.fits(s.segCost(idx, weights)):
		if err := s.load(idx, weights); err != nil {
			return graph.Segment{}, err
		}
	case fr.resident && s.fits(s.segCost(idx, true)-s.segCost(idx, false)):
		if err := s.addWeights(idx); err != nil {
			return graph.Segment{}, err
		}
	default:
		return s.readThrough(idx, from, rest, weights, lists)
	}
	s.stats.Pins++
	sg := s.handle(idx)
	sg.Edges, sg.Owner = fr.edges, (*tier)(s)
	if weights {
		sg.Weights = fr.weights
	}
	return sg, nil
}

// handle is a handle on segment idx that lends no column yet.
func (s *Store) handle(idx int32) graph.Segment {
	m := &s.segs[idx]
	return graph.Segment{
		First: graph.VertexID(m.first),
		End:   graph.VertexID(m.first + m.count),
		Base:  s.offsets[m.first],
		Frame: idx,
	}
}

// fits reports whether need more bytes fit the budget beside the
// resident set and a read-through buffer, which resident counts once one
// exists.
func (s *Store) fits(need int64) bool {
	if s.budget <= 0 {
		return true
	}
	reserve := int64(0)
	if s.bufs == 0 {
		reserve = s.bufCost
	}
	return s.resident+need+reserve <= s.budget
}

// tier is the Store as the owner of the frames it lends: the Unpin that
// graph.Segment.Release calls back, kept off Store's own method set so
// Release on the handle stays the only way to drop a pin.
type tier Store

// Unpin drops one frame handle's pin.
func (t *tier) Unpin(idx int32) {
	s := (*Store)(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.Pins <= 0 || !s.frames[idx].resident {
		//lint:ignore panicpath unbalanced Release is a caller bug; corrupting the pin count silently would be worse
		panic(fmt.Sprintf("store: Release of segment %d without matching Pin", idx))
	}
	s.stats.Pins--
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

// load fetches, verifies, and decompresses segment idx under s.mu into
// its frame: the edge ids, and the weights too when weights is set.
func (s *Store) load(idx int32, weights bool) error {
	n := s.segs[idx].edges
	edges := make([]graph.VertexID, n)
	var wts []float32
	if weights {
		wts = make([]float32, n)
	}
	if err := s.readAll(idx, s.readScratch(), edges, wts); err != nil {
		return err
	}
	fr := &s.frames[idx]
	fr.edges, fr.weights, fr.hasWeights = edges, wts, weights
	fr.resident = true
	s.charge(idx, s.segCost(idx, weights))
	return nil
}

// addWeights adds the weight column to resident edge-only frame idx, in
// place: handles already lent on the frame read only its edge ids, which
// stay where they are. It fetches the whole payload again and checks its
// CRC, so it counts as a miss and pays the payload in FarBytes. On
// failure the frame is as it was.
func (s *Store) addWeights(idx int32) error {
	wts := make([]float32, s.segs[idx].edges)
	if err := s.readAll(idx, s.readScratch(), nil, wts); err != nil {
		return err
	}
	fr := &s.frames[idx]
	fr.weights, fr.hasWeights = wts, true
	s.charge(idx, s.segCost(idx, true)-s.segCost(idx, false))
	return nil
}

// charge books a miss on segment idx that made need bytes resident.
func (s *Store) charge(idx int32, need int64) {
	s.grow(need)
	s.stats.Misses++
	s.stats.FarBytes += int64(s.segs[idx].len)
}

// grow books n more resident bytes.
func (s *Store) grow(n int64) {
	s.resident += n
	if s.resident > s.stats.PeakResidentBytes {
		s.stats.PeakResidentBytes = s.resident
	}
}

// readThrough serves a pin the full tier cannot load. It reads the lists
// of from and of the run of rest that ascends inside the segment into a
// read-through buffer — their weights alone when the frame holds the edge
// ids, which the handle then lends beside them — and leaves the resident
// set as it was. It counts as a miss and pays the whole payload.
func (s *Store) readThrough(idx int32, from graph.VertexID, rest []graph.VertexID, weights, lists bool) (graph.Segment, error) {
	sg := s.handle(idx)
	if rest != nil {
		n, prev := 0, from
		for n < len(rest) && rest[n] > prev && rest[n] < sg.End {
			prev = rest[n]
			n++
		}
		rest = rest[:n]
	}
	b := s.takeBuf(lists)
	if poisonReadThroughs {
		for i := range b.edges {
			b.edges[i] = graph.VertexID(s.NumVertices())
		}
		for i := range b.weights {
			b.weights[i] = float32(math.NaN())
		}
	}
	fr := &s.frames[idx]
	n := s.segs[idx].edges
	sg.Edges, sg.Owner = fr.edges, b
	var ids []graph.VertexID
	if !fr.resident {
		ids = b.edges[:n]
		sg.Edges = ids
	}
	if weights {
		sg.Weights = b.weights[:n]
	}
	if err := s.readLists(idx, s.readScratch(), from, rest, ids, sg.Weights); err != nil {
		s.returnBuf(b)
		return graph.Segment{}, err
	}
	s.charge(idx, 0)
	s.stats.ReadThroughs++
	s.stats.Pins++
	return sg, nil
}

// readBuf is a read-through buffer: room for the largest segment's edge
// ids and, in a weighted container, its weights. It is the Unpinner of
// the handle it is lent to.
type readBuf struct {
	s       *Store
	edges   []graph.VertexID
	weights []float32
	lent    bool
	lists   bool // lent through PinLists
}

// Unpin drops the handle's pin and takes the buffer back.
func (b *readBuf) Unpin(idx int32) {
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.lent {
		//lint:ignore panicpath unbalanced Release is a caller bug; lending the buffer twice silently would be worse
		panic(fmt.Sprintf("store: Release of a read-through of segment %d without matching Pin", idx))
	}
	s.stats.Pins--
	s.returnBuf(b)
}

// takeBuf lends a read-through buffer: the spare; else a new one if the
// budget has room; else, while a PinLists caller holds one, the first one
// returned; else a new one over the budget.
func (s *Store) takeBuf(lists bool) *readBuf {
	for s.spare == nil && s.listHolders > 0 && s.resident+s.bufCost > s.budget {
		s.bufFree.Wait()
	}
	b := s.spare
	s.spare = nil
	if b == nil {
		b = &readBuf{s: s, edges: make([]graph.VertexID, s.maxSegEdges)}
		if s.weighted {
			b.weights = make([]float32, s.maxSegEdges)
		}
		s.bufs++
		s.grow(s.bufCost)
	}
	b.lent, b.lists = true, lists
	if lists {
		s.listHolders++
	}
	return b
}

// returnBuf takes a lent buffer back: it becomes the spare, or is freed
// if there is one, and a read-through waiting for a buffer wakes.
func (s *Store) returnBuf(b *readBuf) {
	if b.lists {
		s.listHolders--
	}
	b.lent, b.lists = false, false
	if s.spare == nil {
		s.spare = b
	} else {
		s.bufs--
		s.resident -= s.bufCost
	}
	s.bufFree.Broadcast()
}

// poisonReadThroughs, set by tests, fills each read-through buffer with
// out-of-range ids and NaN weights before the served lists are decoded
// over them, so a reader of any other list fails loudly.
var poisonReadThroughs bool

// readAll is readLists of every list of segment idx: a load, a weight
// upgrade and Materialize.
func (s *Store) readAll(idx int32, scratch []byte, edges []graph.VertexID, weights []float32) error {
	return s.readLists(idx, scratch, graph.VertexID(s.segs[idx].first), nil, edges, weights)
}

// readLists reads segment idx's payload (through scratch unless the
// source is mapped), checks the CRC of all of it whichever columns are
// asked for, and decodes the lists of from and then of the vertices of
// rest — every vertex from from to the segment's end when rest is nil —
// into edges unless it is nil and weights unless it is nil. Both hold
// the segment's edge count and take each list at its offset from the
// segment's base, so a handle indexes them the same way whichever lists
// were read. Decoding edge ids walks the whole adjacency: every other
// list's varints are skipped, so framing — truncation, over-long
// varints, exact consumption — is checked everywhere, and ids only where
// they are served.
func (s *Store) readLists(idx int32, scratch []byte, from graph.VertexID, rest []graph.VertexID, edges []graph.VertexID, weights []float32) error {
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
	adj, wts := payload[:adjLen], payload[adjLen:]
	base, end := s.offsets[m.first], graph.VertexID(m.first+m.count)
	at, done := 0, graph.VertexID(m.first) // the adjacency is consumed up to list done
	for a, k := from, 0; ; {
		z := a + 1 // [a, z) is a run of consecutive lists to read
		if rest == nil {
			z = end
		}
		for k < len(rest) && rest[k] == z {
			z++
			k++
		}
		lo, hi := s.offsets[a]-base, s.offsets[z]-base
		if edges != nil {
			if at, err = s.skipLists(idx, adj, at, done, a); err != nil {
				return err
			}
			consumed, list, err := graph.DecodeCompressedAdjacency(edges[lo:hi], s.offsets[a:z+1], adj[at:], uint64(s.NumVertices()))
			if err != nil {
				return fmt.Errorf("%w: segment %d vertex %d: %v", ErrCorrupt, idx, uint64(a)+uint64(list), err)
			}
			at += consumed
		}
		if weights != nil {
			decodeFloat32s(weights[lo:hi], wts[4*lo:])
		}
		done = z
		if k == len(rest) {
			break
		}
		a = rest[k]
		k++
	}
	if edges == nil {
		return nil
	}
	if at, err = s.skipLists(idx, adj, at, done, end); err != nil {
		return err
	}
	if at != len(adj) {
		return fmt.Errorf("%w: segment %d vertex %d: %v", ErrCorrupt, idx, m.first+m.count-1, errTrailingAdjacency)
	}
	return nil
}

// skipLists steps the adjacency cursor at over the lists of vertices
// [a, z), which are not read.
func (s *Store) skipLists(idx int32, adj []byte, at int, a, z graph.VertexID) (int, error) {
	n, err := graph.SkipCompressedAdjacency(adj[at:], s.offsets[z]-s.offsets[a])
	if err != nil {
		return 0, fmt.Errorf("%w: segment %d vertices %d to %d: %v", ErrCorrupt, idx, a, z, err)
	}
	return at + n, nil
}

// errTrailingAdjacency is the one adjacency failure the codec cannot
// see: its bytes ran past the segment's last vertex.
var errTrailingAdjacency = errors.New("adjacency bytes left over after the segment's last vertex")

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
// output arrays, so no frame is pinned or loaded and Stats do not move.
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
		if err := s.readAll(int32(i), scratch, edges[lo:hi], wts); err != nil {
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
