package sweep

import (
	"srlproc/internal/core"
	"srlproc/internal/store"
)

// maxStoreWriters bounds the asynchronous write-through goroutines per
// cache. Beyond it, completions write synchronously in the sweep worker —
// backpressure instead of dropped persistence.
const maxStoreWriters = 4

// AttachStore installs st as the cache's persistent tier. Lookups that
// miss the in-memory memo fall through to the store before simulating, and
// fresh completions write through asynchronously (call FlushStore before
// process exit to guarantee the last results are durable).
//
// Store keys combine the point fingerprint with this binary's
// store.CodeStamp, so an attached store can safely outlive the process: a
// rebuilt binary computes under a new stamp and never reads another
// build's results.
//
// Attaching replaces any previous store after flushing its pending writes;
// the caller remains responsible for closing replaced stores. Attaching
// nil detaches the persistent tier.
func (c *Cache) AttachStore(st store.ResultStore) {
	c.FlushStore()
	c.mu.Lock()
	c.store = st
	c.stamp = store.CodeStamp()
	if c.writeSem == nil {
		c.writeSem = make(chan struct{}, maxStoreWriters)
	}
	c.mu.Unlock()
}

// Store returns the attached persistent tier, or nil.
func (c *Cache) Store() store.ResultStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// StoreStats snapshots the attached store's counters; ok is false when no
// store is attached.
func (c *Cache) StoreStats() (st store.Stats, ok bool) {
	c.mu.Lock()
	s := c.store
	c.mu.Unlock()
	if s == nil {
		return store.Stats{}, false
	}
	return s.Stats(), true
}

// FlushStore blocks until every queued write-through has reached the
// store. It is a no-op without an attached store.
func (c *Cache) FlushStore() {
	c.writeWG.Wait()
}

// storeGet probes the persistent tier for key. Store read errors are
// swallowed into a miss — the persistent tier must never be able to fail a
// sweep that could simply recompute.
func (c *Cache) storeGet(st store.ResultStore, stamp string, key uint64) (*core.Results, bool) {
	res, ok, err := st.Get(store.Key{Fingerprint: key, Stamp: stamp})
	c.mu.Lock()
	switch {
	case err != nil:
		c.storeErrors++
		c.storeMisses++
	case ok:
		c.storeHits++
	default:
		c.storeMisses++
	}
	c.mu.Unlock()
	if err != nil || !ok {
		return nil, false
	}
	return res, true
}

// writeThrough persists a freshly computed result to the attached store,
// asynchronously while writer slots are free and synchronously once
// maxStoreWriters are already in flight. Results are never dropped.
func (c *Cache) writeThrough(key uint64, res *core.Results) {
	c.mu.Lock()
	st, stamp, sem := c.store, c.stamp, c.writeSem
	c.mu.Unlock()
	if st == nil {
		return
	}
	c.writeWG.Add(1)
	select {
	case sem <- struct{}{}:
		go func() {
			defer c.writeWG.Done()
			defer func() { <-sem }()
			c.storePut(st, stamp, key, res)
		}()
	default:
		defer c.writeWG.Done()
		c.storePut(st, stamp, key, res)
	}
}

func (c *Cache) storePut(st store.ResultStore, stamp string, key uint64, res *core.Results) {
	_, err := st.Put(store.Key{Fingerprint: key, Stamp: stamp}, res)
	c.mu.Lock()
	if err != nil {
		c.storeErrors++
	} else {
		c.storePuts++
	}
	c.mu.Unlock()
}
