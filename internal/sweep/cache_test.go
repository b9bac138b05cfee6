package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/trace"
)

// churnCfg returns distinct fingerprints cheaply (no real simulation runs
// behind these: the tests below use fake compute functions).
func churnCfg(seed uint64) core.Config {
	cfg := core.DefaultConfig(core.DesignSRL)
	cfg.Seed = seed
	return cfg
}

// TestCacheChurnStaysWithinBudget is the regression test for the
// unbounded-memoization leak: a capped cache fed far more distinct points
// than its budget must stay inside both the entry and byte budgets, with
// the overflow accounted as evictions.
func TestCacheChurnStaysWithinBudget(t *testing.T) {
	const budget = 8
	c := NewCacheWithBudget(budget, 0)
	const churn = 100
	for i := 0; i < churn; i++ {
		cfg := churnCfg(uint64(1000 + i))
		res, hit, err := c.do(context.Background(), cfg, trace.WEB, func() (*core.Results, error) {
			return fakeResults(cfg, trace.WEB), nil
		})
		if err != nil || hit || res == nil {
			t.Fatalf("point %d: res=%v hit=%v err=%v", i, res, hit, err)
		}
		if n := c.Stats().Entries; n > budget {
			t.Fatalf("point %d: cache holds %d entries, budget %d", i, n, budget)
		}
	}
	st := c.Stats()
	if st.Entries != budget {
		t.Fatalf("entries=%d, want budget %d", st.Entries, budget)
	}
	if st.Evictions != churn-budget {
		t.Fatalf("evictions=%d, want %d", st.Evictions, churn-budget)
	}
	if st.Misses != churn || st.Hits != 0 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

// TestCacheByteBudget pins the byte bound: results carrying large
// observability buffers must evict older entries once the estimated
// footprint passes the budget.
func TestCacheByteBudget(t *testing.T) {
	// Each fake result has a fixed base footprint (~4 KiB); budget three.
	c := NewCacheWithBudget(0, 3*4096)
	for i := 0; i < 20; i++ {
		cfg := churnCfg(uint64(2000 + i))
		_, _, err := c.do(context.Background(), cfg, trace.MM, func() (*core.Results, error) {
			return fakeResults(cfg, trace.MM), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if b := c.Stats().Bytes; b > 3*4096 {
			t.Fatalf("point %d: cache bytes %d over budget", i, b)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("byte budget never evicted")
	}
}

// TestCacheLRUOrder verifies a touched (hit) entry survives eviction in
// favour of a colder one.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCacheWithBudget(2, 0)
	run := func(seed uint64) (*core.Results, bool) {
		cfg := churnCfg(seed)
		res, hit, err := c.do(context.Background(), cfg, trace.WS, func() (*core.Results, error) {
			return fakeResults(cfg, trace.WS), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, hit
	}
	run(1) // cache: [1]
	run(2) // cache: [2 1]
	if _, hit := run(1); !hit {
		t.Fatal("expected hit on 1") // cache: [1 2]
	}
	run(3) // evicts 2, the LRU: cache [3 1]
	if _, hit := run(1); !hit {
		t.Fatal("touched entry 1 was evicted before colder entry 2")
	}
	if _, hit := run(2); hit {
		t.Fatal("cold entry 2 survived eviction")
	}
}

// poisonedRetry drives the failed-attempt retry path on cfg: goroutine A
// enters the computation and fails once released, after two waiters, B
// and C, have parked on it and whileParked has run. The waiters then
// retry through retry. It returns how many of them reported a fresh
// result and how many a cache hit.
func poisonedRetry(t *testing.T, c *Cache, cfg core.Config, suite trace.Suite,
	whileParked func(), retry func() (*core.Results, error)) (freshes, hits int) {
	t.Helper()
	firstEntered := make(chan struct{})
	releaseFirst := make(chan struct{})
	poisonErr := errors.New("poisoned attempt")

	var wg sync.WaitGroup
	// A: enters first, fails after release.
	wg.Add(1)
	var aHit bool
	var aErr error
	go func() {
		defer wg.Done()
		_, aHit, aErr = c.do(context.Background(), cfg, suite, func() (*core.Results, error) {
			close(firstEntered)
			<-releaseFirst
			return nil, poisonErr
		})
	}()
	<-firstEntered

	// B and C: wait on A's in-flight attempt. After A fails, exactly one
	// of them becomes the fresh computer and the other waits on it.
	results := make(chan struct {
		hit bool
		err error
	}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.do(context.Background(), cfg, suite, retry)
			results <- struct {
				hit bool
				err error
			}{hit, err}
		}()
	}
	// Give B and C time to park on A's entry, then poison it.
	time.Sleep(5 * time.Millisecond)
	whileParked()
	close(releaseFirst)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("poisoned-then-retried point deadlocked")
	}

	if aErr == nil || aHit {
		t.Fatalf("first attempt: hit=%v err=%v", aHit, aErr)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("retried caller failed: %v", r.err)
		}
		if r.hit {
			hits++
		} else {
			freshes++
		}
	}
	return freshes, hits
}

// TestCachePoisonedRetryAccounting pins the accounting invariant: every do
// call that returns counts exactly one memo hit, unfilled-queue hit, store
// hit or miss, on the failed-attempt retry path too, where a poisoned
// point's waiters retry and must neither double-count nor deadlock.
func TestCachePoisonedRetryAccounting(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.AttachStore(disk)
	calls := 0

	// The retry simulates: A's failure is one miss, the waiter that
	// retries first computes fresh (one miss), and the other counts one
	// hit on that attempt.
	cfg := churnCfg(3000)
	var computes atomic.Int32
	freshes, hits := poisonedRetry(t, c, cfg, trace.PROD, func() {}, func() (*core.Results, error) {
		computes.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the single-flight window
		return fakeResults(cfg, trace.PROD), nil
	})
	calls += 3
	// The scheduler decides whether C parks on B's attempt (1 fresh + 1
	// hit) or both retry serially against a ready entry (also 1 fresh + 1
	// hit) — but a double fresh compute would mean single-flight broke.
	if computes.Load() != 1 || freshes != 1 || hits != 1 {
		t.Fatalf("computes=%d freshes=%d hits=%d, want 1/1/1", computes.Load(), freshes, hits)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache accounting hits=%d misses=%d, want 1/2", st.Hits, st.Misses)
	}

	// The retry finds its family: while the waiters are parked, a run of
	// the same point at a smaller store queue that never fills is cached
	// (one miss). After A fails, the first waiter to retry is answered by
	// it (one unfilled-queue hit) and the other counts one memo hit.
	big, src := stqCfg(2048), stqCfg(1024)
	freshes, hits = poisonedRetry(t, c, big, trace.WEB, func() {
		if _, hit, err := c.do(context.Background(), src, trace.WEB, simulate(src, trace.WEB)); err != nil || hit {
			t.Errorf("family source: hit=%v err=%v", hit, err)
		}
	}, func() (*core.Results, error) {
		t.Error("a point its family answers simulated")
		return nil, errors.New("simulated")
	})
	calls += 4
	if freshes != 0 || hits != 2 {
		t.Fatalf("family retry: freshes=%d hits=%d, want 0/2", freshes, hits)
	}

	// A point only the store holds is one store hit.
	p := churnCfg(3001)
	pKey := store.Key{Fingerprint: core.PointFingerprint(p, trace.MM), Stamp: store.CodeStamp()}
	if _, err := disk.Put(pKey, fakeResults(p, trace.MM)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.do(context.Background(), p, trace.MM, func() (*core.Results, error) {
		t.Error("a stored point simulated")
		return nil, errors.New("simulated")
	}); err != nil || !hit {
		t.Fatalf("stored point: hit=%v err=%v", hit, err)
	}
	calls++

	c.FlushStore()
	st := c.Stats()
	if st.Hits != 2 || st.UnfilledQueueHits != 1 || st.StoreHits != 1 || st.Misses != 4 {
		t.Fatalf("cache accounting %+v, want hits 2, unfilled-queue hits 1, store hits 1, misses 4", st)
	}
	if n := st.Hits + st.UnfilledQueueHits + st.StoreHits + st.Misses; n != uint64(calls) {
		t.Fatalf("%d do calls counted %d times", calls, n)
	}
}

// TestCacheWaiterCancellation pins ctx behaviour on the waiting path: a
// waiter cancelled while an attempt is in flight returns ctx.Err() without
// counting a hit or a miss and without disturbing the computation.
func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache()
	cfg := churnCfg(3100)
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(context.Background(), cfg, trace.SERVER, func() (*core.Results, error) {
			close(entered)
			<-release
			return fakeResults(cfg, trace.SERVER), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, hit, err := c.do(ctx, cfg, trace.SERVER, func() (*core.Results, error) {
		t.Error("cancelled waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("cancelled waiter: hit=%v err=%v", hit, err)
	}
	if c.Stats().Hits != 0 {
		t.Fatalf("cancelled waiter counted a hit")
	}

	close(release)
	wg.Wait()
	// The in-flight computation completed and cached normally.
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("computation disturbed: misses=%d len=%d", st.Misses, st.Entries)
	}
}

// TestCacheResetDuringInflightCompute pins Reset safety: a Reset racing an
// in-flight computation must not let the stale entry re-insert itself or
// corrupt the accounting, and a fresh compute for the same key after Reset
// proceeds independently.
func TestCacheResetDuringInflightCompute(t *testing.T) {
	c := NewCache()
	cfg := churnCfg(3200)
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, hit, err := c.do(context.Background(), cfg, trace.SFP2K, func() (*core.Results, error) {
			close(entered)
			<-release
			return fakeResults(cfg, trace.SFP2K), nil
		})
		// The stale computer still gets its own result back.
		if res == nil || hit || err != nil {
			t.Errorf("stale compute: res=%v hit=%v err=%v", res, hit, err)
		}
	}()
	<-entered
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("reset left state: len=%d misses=%d", st.Entries, st.Misses)
	}
	close(release)
	wg.Wait()

	// The completed stale entry must not have re-registered itself.
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale compute re-inserted after Reset: len=%d bytes=%d", st.Entries, st.Bytes)
	}
	// A fresh compute after Reset is a normal miss-then-hit.
	for want, wantHit := 0, false; want < 2; want, wantHit = want+1, true {
		_, hit, err := c.do(context.Background(), cfg, trace.SFP2K, func() (*core.Results, error) {
			return fakeResults(cfg, trace.SFP2K), nil
		})
		if err != nil || hit != wantHit {
			t.Fatalf("post-reset call %d: hit=%v err=%v", want, hit, err)
		}
	}
}

// TestCacheResetConcurrentChurn hammers Reset against concurrent do calls
// under the race detector and checks the budget invariant afterwards.
func TestCacheResetConcurrentChurn(t *testing.T) {
	const budget = 4
	c := NewCacheWithBudget(budget, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cfg := churnCfg(uint64(4000 + (w*31+i)%16))
				c.do(context.Background(), cfg, trace.SINT2K, func() (*core.Results, error) {
					if i%7 == 3 {
						return nil, fmt.Errorf("transient failure")
					}
					return fakeResults(cfg, trace.SINT2K), nil
				})
			}
		}(w)
	}
	for r := 0; r < 20; r++ {
		time.Sleep(time.Millisecond)
		c.Reset()
	}
	close(stop)
	wg.Wait()
	// Quiesced: every ready entry is within budget (in-flight entries have
	// drained with the workers).
	if n := c.Stats().Entries; n > budget {
		t.Fatalf("after churn+resets cache holds %d entries, budget %d", n, budget)
	}
}

// TestCacheSetBudgetEvictsImmediately verifies shrinking the budget on a
// live cache trims it in place.
func TestCacheSetBudgetEvictsImmediately(t *testing.T) {
	c := NewCacheWithBudget(0, 0) // unbounded
	for i := 0; i < 10; i++ {
		cfg := churnCfg(uint64(5000 + i))
		c.do(context.Background(), cfg, trace.WEB, func() (*core.Results, error) {
			return fakeResults(cfg, trace.WEB), nil
		})
	}
	if n := c.Stats().Entries; n != 10 {
		t.Fatalf("len=%d", n)
	}
	c.SetBudget(3, 0)
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 7 {
		t.Fatalf("after SetBudget: len=%d evictions=%d", st.Entries, st.Evictions)
	}
}
