package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// resultBudget bounds the bytes the result cache holds — result keys
// plus values, and the execution traces the simulator's results are
// priced from — and with it every result byte the service retains: jobs
// keep a key, not a copy. A constant, not a setting (DESIGN.md, "What the
// service retains").
const resultBudget = 32 << 20

// ResultCache maps canonical cache keys (snapshot digest + normalized
// spec, see JobSpec.cacheKey) to the canonical marshalled result bytes,
// and is their only owner. Beside them, under the same budget and on the
// same recency list, it keeps execution traces (traceKey): a simulator
// miss whose execution is known only prices and encodes. Execution is
// deterministic, so entries never go stale; eviction is purely a memory
// concern — least recently used first, results and traces alike. A
// stored entry is evicted only after newer entries worth the budget, less
// whatever was re-referenced meanwhile, were stored; a hit evicts
// nothing.
type ResultCache struct {
	mu     sync.Mutex
	max    int
	budget int64
	bytes  int64
	items  map[string]*list.Element
	traces map[traceKey]*list.Element
	lru    list.List // of *cacheEntry, most recently used first
	// running holds, for each trace being executed, a channel closed when
	// the execution ends; tracesEvicted counts traces evicted.
	running       map[traceKey]chan struct{}
	tracesEvicted *metrics.Counter
}

// cacheEntry is a result (key, b) or a trace (tkey, t).
type cacheEntry struct {
	key  string
	b    []byte
	tkey traceKey
	t    *sim.Trace
}

func (e *cacheEntry) size() int64 {
	if e.t != nil {
		return int64(len(e.tkey.digest)+len(e.tkey.kernel)) + e.t.Size()
	}
	return int64(len(e.key) + len(e.b))
}

// traceKey names one execution on one graph: the graph's content digest,
// the partition plan (the plan cache's key: partitioner value and k) and
// the kernel, by canonical name and iteration budget — served kernels
// start at vertex 0, so nothing else tells two apart. Architecture,
// policy, aggregation, computes and workers price or speed an execution
// and are not part of it.
type traceKey struct {
	digest string
	plan   planKey
	kernel string
	iters  int
}

// newResultCache returns a cache bounded to max results (0 = a default of
// 256: over 128 KiB a result the byte budget binds first) and budget bytes.
func newResultCache(max int, budget int64) *ResultCache {
	if max <= 0 {
		max = 256
	}
	return &ResultCache{
		max: max, budget: budget,
		items:         make(map[string]*list.Element),
		traces:        make(map[traceKey]*list.Element),
		running:       make(map[traceKey]chan struct{}),
		tracesEvicted: new(metrics.Counter),
	}
}

// Get returns the cached bytes for key and marks them most recently used.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).b, true
}

// Put stores bytes under key as the most recent entry, first evicting
// from the least recent end until it fits both bounds; a value larger
// than the whole budget is admitted alone. It reports the results and
// bytes evicted (traces it evicts count in tracesEvicted). A racing Put of
// the same key keeps the first value — deterministic execution guarantees
// both are identical.
func (c *ResultCache) Put(key string, b []byte) (evicted int, evictedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return 0, 0
	}
	e := &cacheEntry{key: key, b: b}
	evicted, evictedBytes = c.makeRoomLocked(e.size(), true)
	c.items[key] = c.lru.PushFront(e)
	c.bytes += e.size()
	return evicted, evictedBytes
}

// makeRoomLocked evicts from the least recent end until size more bytes
// fit the budget and, for a result, one more result fits the entry
// bound. Callers hold c.mu.
func (c *ResultCache) makeRoomLocked(size int64, result bool) (evicted int, evictedBytes int64) {
	for c.lru.Len() > 0 && (result && len(c.items) >= c.max || c.bytes+size > c.budget) {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		c.bytes -= old.size()
		if old.t != nil {
			delete(c.traces, old.tkey)
			c.tracesEvicted.Inc()
			continue
		}
		delete(c.items, old.key)
		evicted++
		evictedBytes += old.size()
	}
	return evicted, evictedBytes
}

// trace returns the trace kept under key, running exec for it on a miss
// and keeping what it returns; it counts the hit or miss and what keeping
// evicts in cs. Callers of one key share one execution: while exec runs,
// the others wait for it, or for their own ctx, and then read what it
// kept, each a hit. An execution that fails or is cancelled keeps
// nothing; its waiters try again, and the first of them executes afresh.
func (c *ResultCache) trace(ctx context.Context, key traceKey, cs *counters, exec func() (*sim.Trace, error)) (*sim.Trace, error) {
	for {
		c.mu.Lock()
		if el, ok := c.traces[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			cs.traceHits.Inc()
			return el.Value.(*cacheEntry).t, nil
		}
		wait, running := c.running[key]
		if !running {
			c.running[key] = make(chan struct{})
		}
		c.mu.Unlock()
		if !running {
			cs.traceMisses.Inc()
			return c.execute(key, cs, exec)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// execute runs exec for the caller that claimed key, keeps its trace if
// it succeeded, and releases the waiters whatever happened.
func (c *ResultCache) execute(key traceKey, cs *counters, exec func() (*sim.Trace, error)) (t *sim.Trace, err error) {
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		close(c.running[key])
		delete(c.running, key)
		if err != nil {
			return
		}
		e := &cacheEntry{tkey: key, t: t}
		n, nb := c.makeRoomLocked(e.size(), false)
		cs.resultsEvicted.Add(int64(n))
		cs.resultBytesEvicted.Add(nb)
		c.traces[key] = c.lru.PushFront(e)
		c.bytes += e.size()
	}()
	return exec()
}
