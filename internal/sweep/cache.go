package sweep

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/trace"
)

// Cache memoizes simulation results by the stable fingerprint of their
// (Config, suite) point — the seed and run lengths are part of the config
// and therefore part of the key. The simulator is deterministic in its
// config, so a cached *core.Results is indistinguishable from a fresh run.
//
// Concurrent requests for the same point are collapsed: the first caller
// simulates, later callers wait for its result (single-flight), so one
// sweep never simulates a point twice no matter how its worker pool
// schedules duplicates. Failed or cancelled computations are not cached.
//
// A point the cache does not hold may still be answered by a run it holds:
// a run whose single-level store queue never filled is also the run of
// every point that differs from it only in a larger Config.STQSize
// (core.Results.Answers). The cache files such runs by their
// core.STQFamily key and publishes a match as the missed point's own
// entry, so Figure 2's store queues that outgrow their workload simulate
// once.
//
// The cache is bounded: it holds at most its entry budget of memoized
// points and at most its byte budget of estimated result footprint,
// evicting the least-recently-used ready entry when either is exceeded.
// A long-lived process (the srlserved HTTP server) can therefore keep the
// process-global cache hot indefinitely without it growing into a memory
// leak. In-flight computations are never evicted — single-flight collapse
// always holds — and eviction never invalidates a pointer a caller already
// received.
//
// Cached results are shared pointers and must be treated as read-only by
// all consumers, which every aggregation path in this repository does.
type Cache struct {
	mu sync.Mutex
	m  map[uint64]*cacheEntry
	// fam files, by core.STQFamily key, every ready entry of m whose
	// result answers its own point and so may answer larger store queues.
	fam          map[uint64][]*cacheEntry
	lru          *list.List // ready entries, most recently used at front
	bytes        int64
	maxEntries   int
	maxBytes     int64
	hits         uint64
	unfilledHits uint64
	misses       uint64
	evictions    uint64

	// Persistent tier (see AttachStore in store.go). store is nil unless
	// attached; stamp is the binary's code-version stamp folded into every
	// store key; writeSem bounds asynchronous write-through goroutines and
	// writeWG lets FlushStore wait for them.
	store       store.ResultStore
	stamp       string
	writeSem    chan struct{}
	writeWG     sync.WaitGroup
	storeHits   uint64
	storeMisses uint64
	storePuts   uint64
	storeErrors uint64
}

type cacheEntry struct {
	key   uint64
	ready chan struct{} // closed when res/err are final
	res   *core.Results
	err   error

	// LRU and family bookkeeping, guarded by Cache.mu. elem is nil while
	// the computation is in flight and after eviction. fam is the point's
	// core.STQFamily key.
	elem  *list.Element
	bytes int64
	fam   uint64
}

// Default budgets for NewCache and the process-global cache. The byte
// budget is an estimate of retained result footprint (see Stats), sized so
// a steadily churning server stays comfortably inside a small container.
const (
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 256 << 20 // 256 MiB of estimated result footprint
)

// NewCache returns an empty cache with the default entry and byte budgets.
func NewCache() *Cache {
	return NewCacheWithBudget(DefaultCacheEntries, DefaultCacheBytes)
}

// NewCacheWithBudget returns an empty cache bounded to at most maxEntries
// memoized points and maxBytes of estimated result footprint. A zero or
// negative budget disables that bound.
func NewCacheWithBudget(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		m:          make(map[uint64]*cacheEntry),
		fam:        make(map[uint64][]*cacheEntry),
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// globalCache memoizes across every sweep in the process, so the repeated
// points of the paper's evaluation (the baseline and SRL configs recur in
// Figures 2, 6, 8, 9 and 10) are simulated once per process.
var globalCache = NewCache()

// Global returns the process-wide cache that sweeps use by default.
func Global() *Cache { return globalCache }

// Stats is a point-in-time snapshot of a cache's counters and budget.
// Hits, UnfilledQueueHits and Misses count the in-memory memo tier only;
// the Store* fields count the attached persistent tier (all zero — and
// elided from JSON — when no store is attached, so storeless deployments
// see an unchanged document).
type Stats struct {
	Hits uint64 `json:"hits"`
	// UnfilledQueueHits counts memo misses answered by a cached run of
	// the same point at a smaller store queue that never filled.
	UnfilledQueueHits uint64 `json:"unfilled_queue_hits"`
	Misses            uint64 `json:"misses"`
	Evictions         uint64 `json:"evictions"`
	// Entries counts memoized points including in-flight computations;
	// Bytes is the estimated retained footprint of the ready ones.
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"max_entries,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`

	// Persistent-tier traffic from this cache: memo misses served by the
	// store, memo misses the store also missed (simulated fresh), results
	// written through, and store operations that returned errors. A
	// result the store cannot persist is neither a put nor an error.
	StoreHits   uint64 `json:"store_hits,omitempty"`
	StoreMisses uint64 `json:"store_misses,omitempty"`
	StorePuts   uint64 `json:"store_puts,omitempty"`
	StoreErrors uint64 `json:"store_errors,omitempty"`
}

// Stats returns a consistent snapshot of the cache's counters and budget.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		UnfilledQueueHits: c.unfilledHits,
		Misses:            c.misses,
		Evictions:         c.evictions,
		Entries:           len(c.m),
		Bytes:             c.bytes,
		MaxEntries:        c.maxEntries,
		MaxBytes:          c.maxBytes,
		StoreHits:         c.storeHits,
		StoreMisses:       c.storeMisses,
		StorePuts:         c.storePuts,
		StoreErrors:       c.storeErrors,
	}
}

// SetBudget adjusts the entry and byte budgets (zero or negative disables
// that bound) and evicts immediately if the cache is now over budget.
func (c *Cache) SetBudget(maxEntries int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evictLocked()
}

// Reset drops every memoized result and zeroes every counter. It is safe
// against concurrent in-flight computations: they complete, publish to
// their waiters, and — because their entry is no longer the one in the map
// — skip re-inserting themselves into the reset cache.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[uint64]*cacheEntry)
	c.fam = make(map[uint64][]*cacheEntry)
	c.lru = list.New()
	c.bytes = 0
	c.hits, c.unfilledHits, c.misses, c.evictions = 0, 0, 0, 0
	c.storeHits, c.storeMisses, c.storePuts, c.storeErrors = 0, 0, 0, 0
}

// do returns the memoized result for the point, computing it with fn on a
// miss. hit reports whether the result came from the cache — the memo
// tier, another goroutine's in-flight computation, a cached run of the
// point's store-queue family, or the attached persistent store; only a
// fresh simulation reports hit=false, which is what lets a warm restart
// replay a sweep with Report.Simulated == 0. A ctx cancelled while
// waiting returns ctx's error without disturbing the computation and
// without counting anything.
//
// Accounting invariant (pinned by TestCachePoisonedRetryAccounting): every
// do call that returns a result counts exactly one memo hit, one
// unfilled-queue hit, one store hit, or one miss, even on the
// failed-attempt retry path — a waiter that wakes on a failed attempt
// loops, and either becomes the fresh computer (one miss, unless its
// family or the store answers) or waits on a newer attempt (one hit on its
// success).
func (c *Cache) do(ctx context.Context, cfg core.Config, suite trace.Suite,
	fn func() (*core.Results, error)) (res *core.Results, hit bool, err error) {
	key := core.PointFingerprint(cfg, suite)
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.ready:
				if e.err == nil {
					c.mu.Lock()
					c.hits++
					c.touchLocked(e)
					c.mu.Unlock()
					return e.res, true, nil
				}
				// The in-flight attempt failed and removed itself from
				// the map; retry so this caller computes (or waits on a
				// newer attempt) and reports its own error.
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// Memo miss: insert the in-flight entry first (so duplicate
		// requests collapse onto it while the family and the store are
		// probed), then look for a cached run of the point's store-queue
		// family that answers it, then fall through to the persistent
		// tier before paying for a simulation. Only a store miss counts
		// as a cache miss.
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		c.m[key] = e
		st, stamp := c.store, c.stamp
		c.mu.Unlock()
		e.fam = core.STQFamily(cfg, suite)
		if got := c.familyGet(e, cfg); got != nil {
			c.writeThrough(key, got)
			return got, true, nil
		}
		if st != nil {
			if got, ok := c.storeGet(st, stamp, key); ok {
				c.publish(e, got, cfg)
				return got, true, nil
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		res, err = c.compute(e, cfg, fn)
		if err == nil {
			c.writeThrough(key, res)
		}
		return res, false, err
	}
}

// familyGet looks among the ready entries of e's store-queue family for a
// result that also answers cfg, e's point. On a match it counts an
// unfilled-queue hit, marks the source used and publishes the result as
// e's own.
func (c *Cache) familyGet(e *cacheEntry, cfg core.Config) *core.Results {
	c.mu.Lock()
	var got *core.Results
	for _, src := range c.fam[e.fam] {
		if src.res.Answers(cfg) {
			got = src.res
			c.unfilledHits++
			c.lru.MoveToFront(src.elem)
			break
		}
	}
	c.mu.Unlock()
	if got != nil {
		c.publish(e, got, cfg)
	}
	return got
}

// compute runs fn, publishes its outcome on e, and evicts e on failure so
// the point can be retried. A panic in fn is published as an error to any
// waiters before being re-raised to the caller.
func (c *Cache) compute(e *cacheEntry, cfg core.Config,
	fn func() (*core.Results, error)) (res *core.Results, err error) {
	defer func() {
		p := recover()
		if p != nil {
			e.err = fmt.Errorf("sweep: simulation panicked: %v", p)
		} else {
			e.res, e.err = res, err
		}
		if e.err != nil {
			c.mu.Lock()
			// Identity check: a concurrent Reset may have replaced the
			// map out from under this computation; only the entry still
			// registered for its key may touch the accounting.
			if c.m[e.key] == e {
				delete(c.m, e.key)
			}
			c.mu.Unlock()
			close(e.ready)
		} else {
			c.publish(e, e.res, cfg)
		}
		if p != nil {
			panic(p)
		}
	}()
	res, err = fn()
	return res, err
}

// publish completes an in-flight entry for cfg's point with res and wakes
// its waiters. Unless a concurrent Reset has already dropped the entry
// from the map, it joins the LRU list, and its store-queue family when res
// answers cfg: a run whose queue never filled, or the point such a run
// answered. A result read back from the store carries no mark and answers
// nothing.
func (c *Cache) publish(e *cacheEntry, res *core.Results, cfg core.Config) {
	e.res = res
	source := res != nil && res.Answers(cfg)
	c.mu.Lock()
	if c.m[e.key] == e {
		e.bytes = resultsFootprint(res)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.bytes
		if source {
			c.fam[e.fam] = append(c.fam[e.fam], e)
		}
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// touchLocked marks e most recently used, if it is still cached.
func (c *Cache) touchLocked(e *cacheEntry) {
	if c.m[e.key] == e && e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// evictLocked drops least-recently-used ready entries until the cache is
// inside both budgets. In-flight entries are not in the LRU list and are
// never evicted, so single-flight collapse is preserved; if only in-flight
// entries remain the cache may transiently exceed the entry budget.
func (c *Cache) evictLocked() {
	for c.overBudgetLocked() {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		delete(c.m, e.key)
		c.lru.Remove(el)
		e.elem = nil
		c.bytes -= e.bytes
		c.evictions++
		c.unfileLocked(e)
	}
}

// unfileLocked removes an evicted entry from its store-queue family, if it
// is filed there.
func (c *Cache) unfileLocked(e *cacheEntry) {
	members := c.fam[e.fam]
	i := slices.Index(members, e)
	if i < 0 {
		return
	}
	if len(members) == 1 {
		delete(c.fam, e.fam)
	} else {
		c.fam[e.fam] = slices.Delete(members, i, i+1)
	}
}

func (c *Cache) overBudgetLocked() bool {
	if c.maxEntries > 0 && len(c.m) > c.maxEntries {
		return true
	}
	if c.maxBytes > 0 && c.bytes > c.maxBytes {
		return true
	}
	return false
}

// resultsFootprint estimates the retained heap footprint of one cached
// result for the byte budget. It is deliberately an estimate — a fixed
// base for the flat counter struct plus the variable-length observability
// buffers — because the budget exists to bound growth, not to meter it.
func resultsFootprint(r *core.Results) int64 {
	if r == nil {
		return 0
	}
	n := int64(5120) // flat Results struct, occupancy tracker, slack
	if r.Timeline != nil {
		n += int64(r.Timeline.Len()) * 192
	}
	if r.Trace != nil {
		n += int64(r.Trace.Len()) * 24
	}
	n += int64(len(r.Divergences)) * 512
	return n
}
