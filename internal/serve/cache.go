package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// resultBudget bounds the bytes the result cache holds — result keys
// plus values, and the partition plans and execution traces misses are
// computed from — and with it every result byte the service retains: jobs
// keep a key, not a copy. A constant, not a setting (DESIGN.md, "What the
// service retains").
const resultBudget = 32 << 20

// ResultCache maps canonical cache keys (snapshot digest + normalized
// spec, see JobSpec.cacheKey) to the canonical marshalled result bytes,
// and is their only owner. Beside them, under the same budget and on the
// same recency list, it is the service's one memo of what a miss computes
// (memo): partition plans (planKey) and execution traces (traceKey), so a
// miss whose plan or execution is known skips that step. Computation is
// deterministic, so entries never go stale; eviction is purely a memory
// concern — least recently used first, whatever the entry. A stored entry
// is evicted only after newer entries worth the budget, less whatever was
// re-referenced meanwhile, were stored; a hit evicts nothing.
type ResultCache struct {
	mu     sync.Mutex
	max    int
	budget int64
	bytes  int64
	items  map[string]*list.Element // results
	memos  map[any]*list.Element    // plans and traces
	lru    list.List                // of *cacheEntry, most recently used first
	// running holds, for each memo key being computed, a channel closed
	// when the computation ends.
	running map[any]chan struct{}
}

// cacheEntry is a result (a string key and its bytes b) or a memoized
// value v, which counts its own eviction.
type cacheEntry struct {
	key     any
	b       []byte
	v       any
	size    int64
	evicted *metrics.Counter // nil for a result
}

// planKey names a plan by what an assignment depends on: the graph's
// content digest, the partitioner's value (one for every seed of an
// unseeded one) and k.
type planKey struct {
	digest string
	p      partition.Partitioner
	k      int
}

// traceKey names one execution: the plan it ran on and the kernel, by
// canonical name and iteration budget — served kernels start at vertex 0,
// so nothing else tells two apart. Architecture, policy, aggregation,
// computes and workers price or speed an execution and are not part of it.
type traceKey struct {
	plan   planKey
	kernel string
	iters  int
}

// memoKind is what one kind of memoized value counts.
type memoKind struct{ hits, misses, evicted *metrics.Counter }

// newResultCache returns a cache bounded to max results (0 = a default of
// 256: over 128 KiB a result the byte budget binds first) and budget bytes.
func newResultCache(max int, budget int64) *ResultCache {
	if max <= 0 {
		max = 256
	}
	return &ResultCache{
		max: max, budget: budget,
		items:   make(map[string]*list.Element),
		memos:   make(map[any]*list.Element),
		running: make(map[any]chan struct{}),
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
// bytes evicted (memoized values count their own). A racing Put of the
// same key keeps the first value — deterministic execution guarantees
// both are identical.
func (c *ResultCache) Put(key string, b []byte) (evicted int, evictedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return 0, 0
	}
	e := &cacheEntry{key: key, b: b, size: int64(len(key) + len(b))}
	evicted, evictedBytes = c.makeRoomLocked(e.size, true)
	c.items[key] = c.lru.PushFront(e)
	c.bytes += e.size
	return evicted, evictedBytes
}

// makeRoomLocked evicts from the least recent end until size more bytes
// fit the budget and, for a result, one more result fits the entry
// bound. It reports the results and result bytes evicted. Callers hold
// c.mu.
func (c *ResultCache) makeRoomLocked(size int64, result bool) (evicted int, evictedBytes int64) {
	for c.lru.Len() > 0 && (result && len(c.items) >= c.max || c.bytes+size > c.budget) {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		c.bytes -= old.size
		if old.evicted != nil {
			delete(c.memos, old.key)
			old.evicted.Inc()
			continue
		}
		delete(c.items, old.key.(string))
		evicted++
		evictedBytes += old.size
	}
	return evicted, evictedBytes
}

// memo returns the value kept under key, running compute for it on a miss
// and keeping what it returns at the size it reports; it counts the hit
// or miss in kind, and the results keeping evicts in cs. Callers of one
// key share one computation: while compute runs, the others wait for it,
// or for their own ctx, and then read what it kept, each a hit. A
// computation that fails or is cancelled keeps nothing; its waiters try
// again, and the first of them computes afresh.
func memo[V any](c *ResultCache, ctx context.Context, key any, kind memoKind, cs *counters, compute func() (V, int64, error)) (V, error) {
	for {
		c.mu.Lock()
		if el, ok := c.memos[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			kind.hits.Inc()
			return el.Value.(*cacheEntry).v.(V), nil
		}
		wait, running := c.running[key]
		if !running {
			c.running[key] = make(chan struct{})
		}
		c.mu.Unlock()
		if !running {
			kind.misses.Inc()
			return remember(c, key, kind, cs, compute)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// remember runs compute for the caller that claimed key, keeps its value
// if it succeeded, and releases the waiters whatever happened.
func remember[V any](c *ResultCache, key any, kind memoKind, cs *counters, compute func() (V, int64, error)) (V, error) {
	var kept *cacheEntry
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		close(c.running[key])
		delete(c.running, key)
		if kept == nil {
			return
		}
		n, nb := c.makeRoomLocked(kept.size, false)
		cs.resultsEvicted.Add(int64(n))
		cs.resultBytesEvicted.Add(nb)
		c.memos[key] = c.lru.PushFront(kept)
		c.bytes += kept.size
	}()
	v, size, err := compute()
	if err == nil {
		kept = &cacheEntry{key: key, v: v, size: size, evicted: kind.evicted}
	}
	return v, err
}

// plan returns the plan kept under key, partitioning g on a miss. A plan
// is charged four bytes a vertex plus its digest.
func (c *ResultCache) plan(ctx context.Context, g *graph.Graph, key planKey, cs *counters) (*partition.Assignment, error) {
	return memo(c, ctx, key, cs.plans, cs, func() (*partition.Assignment, int64, error) {
		a, err := key.p.Partition(g, key.k)
		if err != nil {
			return nil, 0, err
		}
		return a, 4*int64(len(a.Parts)) + int64(len(key.digest)), nil
	})
}
