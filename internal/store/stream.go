package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/gio"
	"repro/internal/graph"
)

// SpillBuilder builds a gcsr2 container from an edge stream whose total
// size may exceed RAM: edges accumulate in a bounded buffer, sorted runs
// spill to temporary files, and the finish step merges the runs directly
// into the streaming container Writer — a textbook external sort, so a
// scale-factor-100 graph builds with memory proportional to one run.
//
// Duplicate (src, dst) pairs deduplicate with first-inserted-wins
// semantics: in-buffer sorting is stable and the k-way merge breaks key
// ties by run creation order, so the surviving edge (and its weight) is
// the one the generator emitted first. This is deterministic for a given
// insertion sequence — a cleaner contract than the in-memory Builder,
// whose unstable sort keeps the duplicate it happens to put first:
// deterministic for a given Go release, but not the first inserted.
//
// SpillBuilder is not safe for concurrent use.
type SpillBuilder struct {
	n    int
	opts SpillOptions

	buf    []graph.Edge
	runs   []string // spilled run file paths, in creation order
	rec    [edgeRecSize]byte
	added  int64
	err    error
	closed bool
}

// SpillOptions configures a SpillBuilder.
type SpillOptions struct {
	// Weighted selects a weighted container.
	Weighted bool
	// DropSelfLoops discards src == dst edges at insertion.
	DropSelfLoops bool
	// SpillEdges is the in-memory buffer capacity in edges before a run
	// spills (<= 0 selects DefaultSpillEdges).
	SpillEdges int
	// TempDir holds the spilled runs ("" selects the OS default).
	TempDir string
	// SegmentBytes is passed through to the container Writer.
	SegmentBytes int64
}

// DefaultSpillEdges bounds the in-memory run at 4Mi edges (~48 MiB of
// buffered records).
const DefaultSpillEdges = 4 << 20

// edgeRecSize is the fixed spill record: src u32, dst u32, weight f32,
// little-endian.
const edgeRecSize = 12

// NewSpillBuilder returns a builder for a graph with n vertices.
func NewSpillBuilder(n int, opts SpillOptions) *SpillBuilder {
	if opts.SpillEdges <= 0 {
		opts.SpillEdges = DefaultSpillEdges
	}
	return &SpillBuilder{
		n:    n,
		opts: opts,
		buf:  make([]graph.Edge, 0, opts.SpillEdges),
	}
}

// AddEdge appends a directed edge, spilling a sorted run when the buffer
// fills. Errors (range violations, spill I/O) latch and surface at
// WriteContainer; the signature matches graph.Builder.AddEdge so both
// satisfy gen.EdgeSink.
func (sb *SpillBuilder) AddEdge(src, dst graph.VertexID, weight float32) {
	if sb.err != nil {
		return
	}
	if int64(src) >= int64(sb.n) || int64(dst) >= int64(sb.n) {
		sb.err = fmt.Errorf("store: edge %d -> %d out of range [0,%d)", src, dst, sb.n)
		return
	}
	if sb.opts.DropSelfLoops && src == dst {
		return
	}
	sb.buf = append(sb.buf, graph.Edge{Src: src, Dst: dst, Weight: weight})
	sb.added++
	if len(sb.buf) >= sb.opts.SpillEdges {
		sb.spill()
	}
}

// NumEdgesAdded returns the edges accepted so far (pre-dedup).
func (sb *SpillBuilder) NumEdgesAdded() int64 { return sb.added }

// NumRuns returns the spilled run count (tests assert the external path
// actually engaged).
func (sb *SpillBuilder) NumRuns() int { return len(sb.runs) }

// spill stable-sorts the buffer by (src, dst) and writes it as one run.
func (sb *SpillBuilder) spill() {
	if sb.err != nil || len(sb.buf) == 0 {
		return
	}
	buf := sb.buf
	sort.SliceStable(buf, func(i, j int) bool {
		if buf[i].Src != buf[j].Src {
			return buf[i].Src < buf[j].Src
		}
		return buf[i].Dst < buf[j].Dst
	})
	f, err := os.CreateTemp(sb.opts.TempDir, "gcsr2-run-*.tmp")
	if err != nil {
		sb.err = err
		return
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, e := range buf {
		binary.LittleEndian.PutUint32(sb.rec[0:], uint32(e.Src))
		binary.LittleEndian.PutUint32(sb.rec[4:], uint32(e.Dst))
		binary.LittleEndian.PutUint32(sb.rec[8:], math.Float32bits(e.Weight))
		if _, err := bw.Write(sb.rec[:]); err != nil {
			sb.err = err
			break
		}
	}
	if err := bw.Flush(); err != nil && sb.err == nil {
		sb.err = err
	}
	name := f.Name()
	if err := f.Close(); err != nil && sb.err == nil {
		sb.err = err
	}
	sb.runs = append(sb.runs, name)
	if sb.err != nil {
		sb.Cleanup()
		return
	}
	sb.buf = sb.buf[:0]
}

// Cleanup removes the spilled runs. Idempotent; WriteContainer calls it,
// so explicit calls are only needed on abandoned builders.
func (sb *SpillBuilder) Cleanup() {
	for _, name := range sb.runs {
		_ = os.Remove(name)
	}
	sb.runs = nil
}

// runReader streams one spilled run during the merge.
type runReader struct {
	f   *os.File
	br  *bufio.Reader
	cur graph.Edge
	ok  bool
}

// next loads the run's next record; clean EOF clears ok.
func (r *runReader) next() error {
	var rec [edgeRecSize]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.EOF {
			r.ok = false
			return nil
		}
		return fmt.Errorf("store: reading spill run: %w", err)
	}
	r.cur = graph.Edge{
		Src:    graph.VertexID(binary.LittleEndian.Uint32(rec[0:])),
		Dst:    graph.VertexID(binary.LittleEndian.Uint32(rec[4:])),
		Weight: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
	}
	return nil
}

// WriteContainer merges the runs and the residual buffer into w as a
// gcsr2 container, deduplicating on the fly, then removes the runs. The
// builder is unusable afterwards.
func (sb *SpillBuilder) WriteContainer(w io.Writer) error {
	if sb.closed {
		return fmt.Errorf("store: WriteContainer on a finished builder")
	}
	sb.closed = true
	defer sb.Cleanup()
	if sb.err != nil {
		return sb.err
	}

	// The residual buffer becomes the final (highest-index) run: its
	// edges were inserted after everything already spilled, which is
	// exactly what the run-order tie-break needs.
	buf := sb.buf
	sort.SliceStable(buf, func(i, j int) bool {
		if buf[i].Src != buf[j].Src {
			return buf[i].Src < buf[j].Src
		}
		return buf[i].Dst < buf[j].Dst
	})

	readers := make([]*runReader, 0, len(sb.runs))
	defer func() {
		for _, r := range readers {
			_ = r.f.Close()
		}
	}()
	for _, name := range sb.runs {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		r := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<20), ok: true}
		readers = append(readers, r)
		if err := r.next(); err != nil {
			return err
		}
	}

	sw, err := NewWriter(w, WriterOptions{
		NumVertices:  sb.n,
		Weighted:     sb.opts.Weighted,
		SegmentBytes: sb.opts.SegmentBytes,
	})
	if err != nil {
		return err
	}

	m := &merger{sw: sw, weighted: sb.opts.Weighted}
	bufIdx := 0
	var prev graph.Edge
	havePrev := false
	for {
		// Pick the smallest (src, dst) across runs; on equal keys the
		// earliest-created run (lowest index, buffer last) wins, which the
		// strict less comparison delivers for free.
		best := -1
		for i, r := range readers {
			if !r.ok {
				continue
			}
			if best < 0 || edgeLess(r.cur, readers[best].cur) {
				best = i
			}
		}
		var e graph.Edge
		switch {
		case best >= 0 && (bufIdx >= len(buf) || !edgeLess(buf[bufIdx], readers[best].cur)):
			e = readers[best].cur
			if err := readers[best].next(); err != nil {
				return err
			}
		case bufIdx < len(buf):
			e = buf[bufIdx]
			bufIdx++
		default:
			goto done
		}
		if havePrev && e.Src == prev.Src && e.Dst == prev.Dst {
			continue
		}
		havePrev = true
		prev = e
		if err := m.emit(e); err != nil {
			return err
		}
	}
done:
	if err := m.finish(sb.n); err != nil {
		return err
	}
	return sw.Close()
}

// SaveContainer is WriteContainer to a file path, which holds either its
// previous contents or the whole container, never a part of it.
func (sb *SpillBuilder) SaveContainer(path string) error {
	return gio.WriteFileAtomic(path, sb.WriteContainer)
}

// edgeLess orders edges by (src, dst), weights ignored.
func edgeLess(a, b graph.Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// merger buffers one vertex's adjacency between the sorted merge and the
// per-vertex container Writer.
type merger struct {
	sw       *Writer
	weighted bool
	curSrc   int
	nbrs     []graph.VertexID
	wts      []float32
}

// emit routes one deduplicated edge, flushing any vertices the merge has
// moved past (including zero-degree gaps).
func (m *merger) emit(e graph.Edge) error {
	for m.curSrc < int(e.Src) {
		if err := m.flushVertex(); err != nil {
			return err
		}
	}
	m.nbrs = append(m.nbrs, e.Dst)
	if m.weighted {
		m.wts = append(m.wts, e.Weight)
	}
	return nil
}

// flushVertex hands the current vertex to the Writer and advances.
func (m *merger) flushVertex() error {
	var wts []float32
	if m.weighted {
		wts = m.wts
	}
	err := m.sw.Vertex(m.nbrs, wts)
	m.nbrs = m.nbrs[:0]
	m.wts = m.wts[:0]
	m.curSrc++
	return err
}

// finish flushes the trailing vertices (the last source and every
// zero-degree vertex after it).
func (m *merger) finish(n int) error {
	for m.curSrc < n {
		if err := m.flushVertex(); err != nil {
			return err
		}
	}
	return nil
}
