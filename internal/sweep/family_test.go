package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/trace"
)

// stqCfg returns a short large-STQ point at the given store queue size. On
// WEB its queue holds at most a few hundred stores, so a 1K queue never
// fills and an 8-entry one does.
func stqCfg(size int) core.Config {
	cfg := tinyCfg(core.DesignLargeSTQ, 1)
	cfg.STQSize = size
	return cfg
}

// simulate returns a do compute function that runs the point for real.
func simulate(cfg core.Config, suite trace.Suite) func() (*core.Results, error) {
	return func() (*core.Results, error) { return Simulate(context.Background(), cfg, suite) }
}

// mustDo runs one do call and checks whether it was a cache hit.
func mustDo(t *testing.T, c *Cache, cfg core.Config, wantHit bool) *core.Results {
	t.Helper()
	res, hit, err := c.do(context.Background(), cfg, trace.WEB, simulate(cfg, trace.WEB))
	if err != nil || hit != wantHit {
		t.Fatalf("STQ %d: hit=%v err=%v, want hit=%v", cfg.STQSize, hit, err, wantHit)
	}
	return res
}

// TestUnfilledQueueAnswersLargerSizes: a cached run whose store queue
// never filled answers a larger queue of the same point as a hit of its
// own kind, and the answer is that point's entry from then on.
func TestUnfilledQueueAnswersLargerSizes(t *testing.T) {
	c := NewCache()
	src := mustDo(t, c, stqCfg(1024), false)
	if got := mustDo(t, c, stqCfg(16384), true); got != src {
		t.Fatal("the larger queue was not answered by the cached run")
	}
	mustDo(t, c, stqCfg(16384), true)
	if st := c.Stats(); st.Misses != 1 || st.UnfilledQueueHits != 1 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 miss, 1 unfilled-queue hit, 1 hit, 2 entries", st)
	}
}

// TestFilledQueueNeverAnswers: a run whose store queue filled is no source.
func TestFilledQueueNeverAnswers(t *testing.T) {
	c := NewCache()
	mustDo(t, c, stqCfg(8), false)
	mustDo(t, c, stqCfg(1024), false)
	if st := c.Stats(); st.UnfilledQueueHits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses", st)
	}
}

// TestInvalidSizeKeepsValidationError: a size core rejects is never
// answered by its family, so the caller sees core's validation error.
func TestInvalidSizeKeepsValidationError(t *testing.T) {
	c := NewCache()
	mustDo(t, c, stqCfg(1024), false)
	for _, size := range []int{0, 16385} {
		cfg := stqCfg(size)
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("STQ size %d validates", size)
		}
		_, hit, err := c.do(context.Background(), cfg, trace.WEB, simulate(cfg, trace.WEB))
		if hit || err == nil || err.Error() != want.Error() {
			t.Fatalf("STQ size %d: hit=%v err=%v, want %v", size, hit, err, want)
		}
	}
	if st := c.Stats(); st.UnfilledQueueHits != 0 {
		t.Fatalf("an invalid size was answered: %+v", st)
	}
}

// TestNoCacheBypassesFamily: a NoCache sweep simulates a point its family
// would answer, and leaves the cache untouched.
func TestNoCacheBypassesFamily(t *testing.T) {
	c := NewCache()
	mustDo(t, c, stqCfg(1024), false)
	before := c.Stats()
	sims := 0
	counting := func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		sims++
		return Simulate(ctx, cfg, suite)
	}
	pts := []Point{{Label: "big", Cfg: stqCfg(2048), Suite: trace.WEB}}
	rep, err := Run(context.Background(), pts, Options{Workers: 1, Cache: c, NoCache: true, Simulate: counting})
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 || rep.Simulated != 1 || rep.CacheHits != 0 {
		t.Fatalf("NoCache: %d simulations, report %v", sims, rep)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("NoCache touched the cache: %+v, was %+v", after, before)
	}
}

// TestEvictionAndResetLeaveFamily: an evicted entry leaves its family, and
// Reset empties every family.
func TestEvictionAndResetLeaveFamily(t *testing.T) {
	c := NewCacheWithBudget(1, 0)
	mustDo(t, c, stqCfg(1024), false)
	other := stqCfg(1024)
	other.Seed = 2
	mustDo(t, c, other, false) // evicts the seed-1 run
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", st)
	}
	mustDo(t, c, stqCfg(2048), false)

	members := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, es := range c.fam {
			n += len(es)
		}
		return n
	}
	c = NewCache()
	mustDo(t, c, stqCfg(1024), false)
	mustDo(t, c, stqCfg(2048), true) // an answered point answers too
	if n := members(); n != 2 {
		t.Fatalf("the family holds %d entries, want 2", n)
	}
	c.SetBudget(1, 0) // evicts the 1K run, the least recently used
	if n := members(); n != 1 {
		t.Fatalf("the family holds %d entries after shrinking the cache to one, want 1", n)
	}
	mustDo(t, c, stqCfg(4096), true)
	c.Reset()
	if n := members(); n != 0 {
		t.Fatalf("Reset left %d family entries", n)
	}
	mustDo(t, c, stqCfg(8192), false)
}

// TestStoreResultNeverSource: a result read back from the persistent store
// carries no store-queue mark, so it answers only its own point.
func TestStoreResultNeverSource(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cache {
		disk, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.AttachStore(disk)
		return c
	}
	c1 := open()
	mustDo(t, c1, stqCfg(1024), false)
	c1.FlushStore()

	c2 := open()
	mustDo(t, c2, stqCfg(1024), true)
	mustDo(t, c2, stqCfg(2048), false)
	c2.FlushStore()
	if st := c2.Stats(); st.StoreHits != 1 || st.UnfilledQueueHits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 store hit and 1 miss", st)
	}
}

// TestFamilyConcurrent asks for five queue sizes of one point from four
// goroutines at once, each in its own order, on a cache small enough to
// evict family members while others are probing them. Every answer must be
// the bytes of a fresh run, and every call must count once.
func TestFamilyConcurrent(t *testing.T) {
	fresh, err := Simulate(context.Background(), stqCfg(1024), trace.WEB)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fresh)
	sizes := []int{1024, 2048, 4096, 8192, 16384}
	const workers = 4
	c := NewCacheWithBudget(3, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range sizes {
				cfg := stqCfg(sizes[(i+w)%len(sizes)])
				res, _, err := c.do(context.Background(), cfg, trace.WEB, simulate(cfg, trace.WEB))
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(res); !bytes.Equal(got, want) {
					t.Errorf("STQ %d differs from a fresh run", cfg.STQSize)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if n := st.Hits + st.UnfilledQueueHits + st.Misses; n != workers*uint64(len(sizes)) {
		t.Fatalf("%d calls counted %d times: %+v", workers*len(sizes), n, st)
	}
	if st.UnfilledQueueHits == 0 {
		t.Fatalf("no size was answered by its family: %+v", st)
	}
}
