package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/trace"
)

func storePoints(n int) []Point {
	var pts []Point
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig(core.DesignSRL)
		cfg.WarmupUops = 500
		cfg.RunUops = 3_000
		cfg.Seed = uint64(7000 + i)
		pts = append(pts, Point{Label: fmt.Sprintf("p%d", i), Cfg: cfg, Suite: trace.WEB})
	}
	return pts
}

// TestWarmRestartFromDiskStore is the end-to-end warm-restart guarantee of
// the two-tier design: a sweep runs against a fresh memo cache backed by a
// disk store, the "process" restarts (new Cache, same store directory),
// and the identical sweep replays with zero simulations and byte-identical
// result documents.
func TestWarmRestartFromDiskStore(t *testing.T) {
	dir := t.TempDir()
	pts := storePoints(3)

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
	rep1, err := Run(context.Background(), pts, Options{Workers: 2, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Simulated != len(pts) || rep1.CacheHits != 0 {
		t.Fatalf("cold sweep: simulated=%d hits=%d", rep1.Simulated, rep1.CacheHits)
	}
	c1.FlushStore() // the restarting process drains write-through first
	if st := c1.Stats(); st.StorePuts != uint64(len(pts)) || st.StoreHits != 0 {
		t.Fatalf("cold sweep store stats: %+v", st)
	}

	c2 := open() // fresh memo tier — simulates a process restart
	rep2, err := Run(context.Background(), pts, Options{Workers: 2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Simulated != 0 {
		t.Fatalf("warm sweep simulated %d points, want 0", rep2.Simulated)
	}
	if rep2.CacheHits != len(pts) {
		t.Fatalf("warm sweep hits=%d, want %d", rep2.CacheHits, len(pts))
	}
	st := c2.Stats()
	if st.StoreHits != uint64(len(pts)) || st.StoreMisses != 0 || st.StorePuts != 0 {
		t.Fatalf("warm sweep store stats: %+v", st)
	}
	for i := range pts {
		want, err := json.Marshal(rep1.Points[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep2.Points[i].Results)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("point %d: warm-restart results are not byte-identical", i)
		}
	}
}

// TestCacheStoreStampFlip pins the code-version isolation at the cache
// layer: a cache whose stamp differs (a rebuilt binary) misses the store
// and recomputes rather than hydrating another build's results.
func TestCacheStoreStampFlip(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pts := storePoints(1)

	c1 := NewCache()
	c1.AttachStore(disk)
	if _, err := Run(context.Background(), pts, Options{Workers: 1, Cache: c1}); err != nil {
		t.Fatal(err)
	}
	c1.FlushStore()

	c2 := NewCache()
	c2.AttachStore(disk)
	c2.stamp += "-other-build" // what a rebuilt binary's CodeStamp looks like
	rep, err := Run(context.Background(), pts, Options{Workers: 1, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	c2.FlushStore() // its recomputed result writes through before the store dir goes
	if rep.Simulated != 1 {
		t.Fatalf("flipped stamp served stale store results: %+v", rep)
	}
	if st := c2.Stats(); st.StoreMisses != 1 || st.StoreHits != 0 {
		t.Fatalf("flipped stamp store stats: %+v", st)
	}

	c3 := NewCache()
	c3.AttachStore(disk)
	rep3, err := Run(context.Background(), pts, Options{Workers: 1, Cache: c3})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Simulated != 0 {
		t.Fatalf("matching stamp missed the store: %+v", rep3)
	}
}

// TestStoreErrorsNeverFailSweep: a persistent tier that fails every
// operation must degrade the cache to tier-1-only behaviour, not fail (or
// stall) the sweep.
func TestStoreErrorsNeverFailSweep(t *testing.T) {
	c := NewCache()
	c.AttachStore(failingStore{})
	pts := storePoints(2)
	rep, err := Run(context.Background(), pts, Options{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	c.FlushStore()
	if rep.Simulated != 2 || rep.Failed != 0 {
		t.Fatalf("sweep over failing store: %+v", rep)
	}
	st := c.Stats()
	if st.StoreErrors == 0 || st.StorePuts != 0 {
		t.Fatalf("failing store stats: %+v", st)
	}
}

// TestFailedComputationsNotWrittenThrough: only successful simulations may
// reach the persistent tier.
func TestFailedComputationsNotWrittenThrough(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.AttachStore(disk)
	cfg := churnCfg(8000)
	boom := errors.New("boom")
	_, _, err = c.do(context.Background(), cfg, trace.WEB, func() (*core.Results, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	c.FlushStore()
	if st := disk.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("failed computation reached the store: %+v", st)
	}
}

// TestObservedResultNotWrittenThrough: an observed run's result does not
// round-trip, so the store refuses it; the cache counts that as neither a
// put nor an error, and the store holds nothing.
func TestObservedResultNotWrittenThrough(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.AttachStore(disk)
	pts := storePoints(1)
	pts[0].Cfg.Obs.SampleEvery = 256
	rep, err := Run(context.Background(), pts, Options{Workers: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	c.FlushStore()
	if rep.Points[0].Results.Timeline == nil {
		t.Fatal("observed run produced no timeline; test fixture is stale")
	}
	if st := c.Stats(); st.StorePuts != 0 || st.StoreErrors != 0 || st.StoreMisses != 1 {
		t.Fatalf("cache store stats: %+v", st)
	}
	if st := disk.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("observed result reached the store: %+v", st)
	}
}

// TestConcurrentSweepWithStore runs duplicate points through a
// store-backed cache under the race detector: single-flight collapse, the
// store probe and asynchronous write-through all race here.
func TestConcurrentSweepWithStore(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.AttachStore(disk)
	base := storePoints(2)
	var pts []Point
	for i := 0; i < 4; i++ {
		pts = append(pts, base...)
	}
	rep, err := Run(context.Background(), pts, Options{Workers: 4, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Simulated != len(base) {
		t.Fatalf("duplicate points simulated %d times, want %d", rep.Simulated, len(base))
	}
	c.FlushStore()
	if st, ok := c.StoreStats(); !ok || st.Puts != uint64(len(base)) {
		t.Fatalf("store stats: ok=%v %+v", ok, st)
	}
}

// failingStore errors on every operation.
type failingStore struct{}

var errStoreDown = errors.New("store down")

func (failingStore) Get(store.Key) (*core.Results, bool, error) { return nil, false, errStoreDown }
func (failingStore) Put(store.Key, *core.Results) (store.Entry, error) {
	return store.Entry{}, errStoreDown
}
func (failingStore) Stats() store.Stats { return store.Stats{} }
func (failingStore) Close() error       { return nil }
