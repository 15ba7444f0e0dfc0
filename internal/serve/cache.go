package serve

import (
	"container/list"
	"context"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// resultBudget bounds the bytes the result cache holds — result keys
// plus values, and the partition plans and execution traces misses are
// computed from — and with it every result byte the service retains: jobs
// keep a key, not a copy. A constant, not a setting (DESIGN.md, "What the
// service retains").
const resultBudget = 32 << 20

// ResultCache is the service's one memo of what a miss computes: the
// canonical marshalled results under their cache keys (snapshot digest +
// normalized spec, see JobSpec.cacheKey), of which it is the only owner,
// and the partition plans (planKey) and execution traces (traceKey, each
// kept with its values' encoding) they are computed from. Each kind has a
// table keyed by its own type; all enter through memo and share one
// recency list under one byte budget.
// Computation is deterministic, so entries never go stale; eviction is
// purely a memory concern — least recently used first, whatever the
// entry. A stored entry is evicted only after newer entries worth the
// budget, less whatever was re-referenced meanwhile, were stored; a hit
// evicts nothing.
type ResultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     list.List // of evictable entries, most recently used first
	results memoTable[string, []byte]
	plans   memoTable[planKey, *partition.Assignment]
	traces  memoTable[traceKey, keptTrace]
}

// memoTable is one kind of memoized value: the entries kept, at most max
// of them, and for each key being computed a channel closed when the
// computation ends, beside what the kind counts.
type memoTable[K comparable, V any] struct {
	kept    map[K]*list.Element
	running map[K]chan struct{}
	max     int
	memoKind
}

// memoKind is what one kind counts; a nil misses is counted by the caller
// (a result's, at Submit), and a nil evictedBytes not at all.
type memoKind struct{ hits, misses, evicted, evictedBytes *metrics.Counter }

// memoEntry is one kept value and the table that keeps it.
type memoEntry[K comparable, V any] struct {
	t    *memoTable[K, V]
	key  K
	v    V
	size int64
}

// evictable is a recency-list entry: evict drops it from its table,
// counts the eviction and returns the bytes it held.
type evictable interface{ evict() int64 }

func (e *memoEntry[K, V]) evict() int64 {
	delete(e.t.kept, e.key)
	e.t.evicted.Inc()
	if e.t.evictedBytes != nil {
		e.t.evictedBytes.Add(e.size)
	}
	return e.size
}

// newMemoTable returns an empty table of at most max entries counting in kind.
func newMemoTable[K comparable, V any](max int, kind memoKind) memoTable[K, V] {
	return memoTable[K, V]{make(map[K]*list.Element), make(map[K]chan struct{}), max, kind}
}

// planKey names a plan by what an assignment depends on: the graph's
// content digest, the partitioner's value (one for every seed of an
// unseeded one) and k.
type planKey struct {
	digest string
	p      partition.Partitioner
	k      int
}

// traceKey names one execution: the plan it ran on and the kernel and
// iteration budget of the job's canonical form (core.Spec.Canonical: the
// registry name, and no budget for a kernel that has none) — served
// kernels start at vertex 0, so nothing else tells two apart.
// Architecture, policy, aggregation, computes and workers price or speed
// an execution and are not part of it.
type traceKey struct {
	plan   planKey
	kernel string
	iters  int
}

// keptTrace is one execution as the cache keeps it: the trace every
// pricing reads and the base64 of its values, encoded once when the trace
// was computed. Every pricing of a trace has the trace's values, so a
// served pricing copies the encoding into its result instead of encoding.
type keptTrace struct {
	trace   *sim.Trace
	encoded []byte
}

// newResultCache returns a cache bounded to max results (0 = a default of
// 256: over 128 KiB a result the byte budget binds first) and budget
// bytes, counting in cs.
func newResultCache(max int, budget int64, cs *counters) *ResultCache {
	if max <= 0 {
		max = 256
	}
	return &ResultCache{
		budget:  budget,
		results: newMemoTable[string, []byte](max, cs.results),
		plans:   newMemoTable[planKey, *partition.Assignment](math.MaxInt, cs.plans),
		traces:  newMemoTable[traceKey, keptTrace](math.MaxInt, cs.traces),
	}
}

// Get returns the cached bytes for key and marks them most recently used.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.results.kept[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*memoEntry[string, []byte]).v, true
}

// memo returns the value t keeps under key, running compute for it on a
// miss and keeping what it returns at the size it reports; it counts the
// hit or miss in t. Callers of one key share one computation: while
// compute runs, the others wait for it, or for their own ctx, and then
// read what it kept, each a hit. A computation that fails or is cancelled
// keeps nothing; its waiters try again, and the first of them computes
// afresh.
func memo[K comparable, V any](c *ResultCache, ctx context.Context, t *memoTable[K, V], key K, compute func() (V, int64, error)) (V, error) {
	for {
		c.mu.Lock()
		if el, ok := t.kept[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			t.hits.Inc()
			return el.Value.(*memoEntry[K, V]).v, nil
		}
		wait, running := t.running[key]
		if !running {
			t.running[key] = make(chan struct{})
		}
		c.mu.Unlock()
		if !running {
			if t.misses != nil {
				t.misses.Inc()
			}
			return remember(c, t, key, compute)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// remember runs compute for the caller that claimed key and releases the
// waiters whatever happened. A value it returned without error is kept as
// the most recent entry, first evicting from the least recent end until it
// fits the budget and t's entry bound; a value larger than the whole
// budget is admitted alone.
func remember[K comparable, V any](c *ResultCache, t *memoTable[K, V], key K, compute func() (V, int64, error)) (V, error) {
	var kept *memoEntry[K, V]
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		close(t.running[key])
		delete(t.running, key)
		if kept == nil {
			return
		}
		for c.lru.Len() > 0 && (len(t.kept) >= t.max || c.bytes+kept.size > c.budget) {
			c.bytes -= c.lru.Remove(c.lru.Back()).(evictable).evict()
		}
		t.kept[key] = c.lru.PushFront(kept)
		c.bytes += kept.size
	}()
	v, size, err := compute()
	if err == nil {
		kept = &memoEntry[K, V]{t: t, key: key, v: v, size: size}
	}
	return v, err
}

// plan returns the plan kept under key, partitioning g on a miss. A plan
// is charged four bytes a vertex plus its digest.
func (c *ResultCache) plan(ctx context.Context, g *graph.Graph, key planKey) (*partition.Assignment, error) {
	return memo(c, ctx, &c.plans, key, func() (*partition.Assignment, int64, error) {
		a, err := key.p.Partition(g, key.k)
		if err != nil {
			return nil, 0, err
		}
		return a, 4*int64(len(a.Parts)) + int64(len(key.digest)), nil
	})
}
