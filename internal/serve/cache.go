package serve

import (
	"container/list"
	"sync"
)

// resultBudget bounds the bytes — keys plus values — the result cache
// holds, and with it every result byte the service retains: jobs keep a
// key, not a copy. A constant, not a setting (DESIGN.md, "What the service
// retains").
const resultBudget = 32 << 20

// ResultCache maps canonical cache keys (snapshot digest + normalized
// spec, see JobSpec.cacheKey) to the canonical marshalled result bytes,
// and is their only owner. Execution is deterministic, so entries never go
// stale; eviction is purely a memory concern — least recently used first.
// A stored result is evicted only after newer results worth the budget,
// less whatever was re-referenced meanwhile, were stored; a hit evicts
// nothing.
type ResultCache struct {
	mu     sync.Mutex
	max    int
	budget int64
	bytes  int64
	items  map[string]*list.Element
	lru    list.List // of *cacheEntry, most recently used first
}

type cacheEntry struct {
	key string
	b   []byte
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.b)) }

// newResultCache returns a cache bounded to max entries (0 = a default of
// 256: over 128 KiB a result the byte budget binds first) and budget bytes.
func newResultCache(max int, budget int64) *ResultCache {
	if max <= 0 {
		max = 256
	}
	return &ResultCache{max: max, budget: budget, items: make(map[string]*list.Element)}
}

// Get returns the cached bytes for key and marks them most recently used.
//
//perf:hot
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
// bytes evicted. A racing Put of the same key keeps the first value —
// deterministic execution guarantees both are identical.
func (c *ResultCache) Put(key string, b []byte) (evicted int, evictedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		return 0, 0
	}
	e := &cacheEntry{key: key, b: b}
	for len(c.items) > 0 && (len(c.items) >= c.max || c.bytes+e.size() > c.budget) {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.items, old.key)
		c.bytes -= old.size()
		evicted++
		evictedBytes += old.size()
	}
	c.items[key] = c.lru.PushFront(e)
	c.bytes += e.size()
	return evicted, evictedBytes
}
