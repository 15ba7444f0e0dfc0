package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary: the product code carries no spans yet.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0: no parent
	Job    int              `json:"job"`    // spans of one job share it; 0: not part of a job
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. The nil recorder
// records nothing, so untraced runs share the traced code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 from the nil recorder).
func (r *recorder) begin(name string, parent, job int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// count attaches a count sampled at the span's boundary.
func (r *recorder) count(id int, key string, v int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	if sp.Counts == nil {
		sp.Counts = make(map[string]int64)
	}
	sp.Counts[key] += v
}

// ms returns the durations, in milliseconds, of every span with the name.
func (r *recorder) ms(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

// sum totals a count over every span with the name.
func (r *recorder) sum(name, key string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, sp := range r.spans {
		if sp.Name == name {
			total += sp.Counts[key]
		}
	}
	return total
}

// selfTimes returns each span's self time by id: its duration minus the
// part of that interval its children cover. Overlapping children (the
// tenants of a closed loop run side by side) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[sp.ID] = sp.End - sp.Start - covered
	}
	return self
}

// traceFile is the on-disk form of a traced pass.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Host     host             `json:"host"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
}

// write stores the spans, and the self time summed by span name, as one
// JSON file.
func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byName := make(map[string]int64)
	self := selfTimes(spans)
	for _, sp := range spans {
		byName[sp.Name] += self[sp.ID]
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: hostFingerprint(), Spans: spans, SelfNS: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
