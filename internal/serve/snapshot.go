// Package serve is the service layer over the analytics framework: a
// snapshot registry of immutable, refcounted CSR graphs loaded once and
// shared by every job, and a job manager that admits, queues, and
// executes analytics jobs against them through the unified core.Engine
// seam. cmd/ndpserve exposes it over stdlib net/http.
//
// The design leans on two properties the rest of the repo establishes:
// graphs are immutable after construction (so one snapshot serves any
// number of concurrent jobs with no locking), and execution is
// deterministic bit for bit (so a result is a pure function of
// (snapshot digest, kernel, canonical config) and can be cached and
// replayed — the served-vs-offline oracle in internal/verify holds the
// service to exactly that).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/gio"
	"repro/internal/graph"
)

// Snapshot is one immutable graph version: the graph, its content
// digest and a reference count. The registry holds one reference; every
// admitted job holds one for its lifetime, so a reload (atomic swap in the
// registry) never pulls a graph out from under a running job — the old
// snapshot drains as its jobs finish.
type Snapshot struct {
	name   string
	g      *graph.Graph
	digest string

	refs atomic.Int64
}

// newSnapshot builds a snapshot with one (registry) reference.
func newSnapshot(name string, g *graph.Graph) (*Snapshot, error) {
	d, err := GraphDigest(g)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{name: name, g: g, digest: d}
	s.refs.Store(1)
	return s, nil
}

// GraphDigest returns the hex SHA-256 of the graph's canonical binary
// (.gcsr) encoding — the content identity that keys the result cache.
func GraphDigest(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := gio.WriteBinary(h, g); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Name returns the registry name the snapshot was loaded under.
func (s *Snapshot) Name() string { return s.name }

// Graph returns the immutable graph. Callers must hold a reference.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Digest returns the content digest.
func (s *Snapshot) Digest() string { return s.digest }

// Refs returns the current reference count (1 = registry only).
func (s *Snapshot) Refs() int64 { return s.refs.Load() }

// acquire takes a reference on behalf of a job.
func (s *Snapshot) acquire() { s.refs.Add(1) }

// release drops a reference. The graph itself is reclaimed by the
// garbage collector once nothing reaches it; the count exists to make
// the snapshot lifecycle observable (tests assert a cancelled job
// returns its reference, and that the count never underruns) and to
// report drain progress on reload.
func (s *Snapshot) release() { s.refs.Add(-1) }

// SnapshotInfo is the wire description of a registry entry.
type SnapshotInfo struct {
	Name     string `json:"name"`
	Digest   string `json:"digest"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Weighted bool   `json:"weighted"`
	Refs     int64  `json:"refs"`
}

func (s *Snapshot) info() SnapshotInfo {
	return SnapshotInfo{
		Name:     s.name,
		Digest:   s.digest,
		Vertices: s.g.NumVertices(),
		Edges:    s.g.NumEdges(),
		Weighted: s.g.Weighted(),
		Refs:     s.Refs(),
	}
}

// Registry maps names to the current snapshot of each graph. Put swaps
// atomically: readers either see the old snapshot or the new one, and
// jobs already holding the old one keep it alive until they finish.
type Registry struct {
	mu    sync.RWMutex
	snaps map[string]*Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{snaps: make(map[string]*Snapshot)}
}

// Put installs g as the current snapshot under name, returning its
// info. A previous snapshot under the same name is released from the
// registry (it drains as in-flight jobs finish — the graceful swap).
func (r *Registry) Put(name string, g *graph.Graph) (SnapshotInfo, error) {
	s, err := newSnapshot(name, g)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return r.install(s), nil
}

// install atomically swaps s in as the current snapshot under its name.
func (r *Registry) install(s *Snapshot) SnapshotInfo {
	r.mu.Lock()
	old := r.snaps[s.name]
	r.snaps[s.name] = s
	r.mu.Unlock()
	if old != nil {
		old.release()
	}
	return s.info()
}

// Get acquires the current snapshot under name. The caller owns one
// reference and must release it (the job manager does this when a job
// leaves the system).
func (r *Registry) Get(name string) (*Snapshot, bool) {
	r.mu.RLock()
	s, ok := r.snaps[name]
	if ok {
		s.acquire()
	}
	r.mu.RUnlock()
	return s, ok
}

// List describes every current snapshot, sorted by name.
func (r *Registry) List() []SnapshotInfo {
	r.mu.RLock()
	out := make([]SnapshotInfo, 0, len(r.snaps))
	for _, s := range r.snaps {
		out = append(out, s.info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
