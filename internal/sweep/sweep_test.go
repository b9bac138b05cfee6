package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

// tinyCfg returns a fast real-simulation config distinguished by seed so
// tests do not collide with each other through the process-global cache.
func tinyCfg(d core.StoreDesign, seed uint64) core.Config {
	cfg := core.DefaultConfig(d)
	cfg.WarmupUops = 500
	cfg.RunUops = 3_000
	cfg.Seed = seed
	return cfg
}

// fakeResults builds a deterministic stand-in result for fake simulators.
func fakeResults(cfg core.Config, suite trace.Suite) *core.Results {
	return &core.Results{Suite: suite, Design: cfg.Design,
		EventCounts: core.EventCounts{Cycles: cfg.RunUops * 2, Uops: cfg.RunUops}}
}

func TestRunEmpty(t *testing.T) {
	rep, err := Run(context.Background(), nil, Options{})
	if err != nil || len(rep.Points) != 0 {
		t.Fatalf("empty sweep: %v %v", rep, err)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var points []Point
	for i, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL, core.DesignHierarchical} {
		points = append(points, Point{Label: fmt.Sprintf("p%d", i), Cfg: tinyCfg(d, 101), Suite: trace.PROD})
	}
	var got [][]string
	for _, workers := range []int{1, 4} {
		rep, err := Run(context.Background(), points, Options{Workers: workers, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var rendered []string
		for _, pr := range rep.Points {
			rendered = append(rendered, pr.Point.String()+"\n"+pr.Results.String())
		}
		got = append(got, rendered)
	}
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Fatalf("worker-count dependence at point %d:\n%s\nvs\n%s", i, got[0][i], got[1][i])
		}
	}
}

func TestCacheHitMatchesFreshRun(t *testing.T) {
	p := Point{Label: "srl", Cfg: tinyCfg(core.DesignSRL, 202), Suite: trace.WEB}
	cache := NewCache()
	first, err := Run(context.Background(), []Point{p}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.Points[0].CacheHit || first.Simulated != 1 {
		t.Fatalf("first run not a fresh simulation: %+v", first)
	}
	if first.Points[0].UopsPerSec <= 0 || first.Points[0].Wall <= 0 {
		t.Fatalf("missing per-point metrics: %+v", first.Points[0])
	}
	second, err := Run(context.Background(), []Point{p}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Points[0].CacheHit || second.CacheHits != 1 {
		t.Fatalf("second run missed the cache: %+v", second)
	}
	fresh, err := Run(context.Background(), []Point{p}, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// The memoized result must be value-identical to an independent fresh
	// simulation of the same point, not merely the same pointer.
	hitRes, freshRes := second.Points[0].Results, fresh.Points[0].Results
	if hitRes.String() != freshRes.String() || hitRes.Cycles != freshRes.Cycles || hitRes.Uops != freshRes.Uops {
		t.Fatalf("cache hit diverges from fresh run:\n%s\nvs\n%s", hitRes, freshRes)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestDuplicatePointsSimulateOnce(t *testing.T) {
	var sims atomic.Int64
	counting := func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		sims.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the single-flight window
		return fakeResults(cfg, suite), nil
	}
	p := Point{Label: "dup", Cfg: tinyCfg(core.DesignSRL, 303), Suite: trace.MM}
	points := []Point{p, p, p, p}
	rep, err := Run(context.Background(), points, Options{Workers: 4, Cache: NewCache(), Simulate: counting})
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations for 4 identical points", n)
	}
	if rep.Simulated != 1 || rep.CacheHits != 3 {
		t.Fatalf("simulated=%d hits=%d", rep.Simulated, rep.CacheHits)
	}
}

func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	blocking := func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("simulation aborted: %w", ctx.Err())
		case <-time.After(30 * time.Second):
			return fakeResults(cfg, suite), nil
		}
	}
	var points []Point
	for i := 0; i < 8; i++ {
		cfg := tinyCfg(core.DesignSRL, uint64(400+i))
		points = append(points, Point{Label: fmt.Sprintf("p%d", i), Cfg: cfg, Suite: trace.WS})
	}
	go func() {
		<-started // at least one point is in flight
		cancel()
	}()
	start := time.Now()
	rep, err := Run(ctx, points, Options{Workers: 2, NoCache: true, Simulate: blocking})
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error does not wrap ctx.Err(): %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	// Every point either never ran or carries the cancellation error.
	for _, pr := range rep.Points {
		if pr.Err == nil && pr.Results == nil {
			t.Fatalf("point %s has neither result nor error", pr.Point)
		}
	}
}

func TestPanicSurfacesAsPointError(t *testing.T) {
	exploding := func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		if suite == trace.SERVER {
			panic("simulated invariant violation")
		}
		return fakeResults(cfg, suite), nil
	}
	points := []Point{
		{Label: "ok", Cfg: tinyCfg(core.DesignSRL, 500), Suite: trace.WEB},
		{Label: "boom", Cfg: tinyCfg(core.DesignSRL, 500), Suite: trace.SERVER},
		{Label: "ok2", Cfg: tinyCfg(core.DesignSRL, 500), Suite: trace.MM},
	}
	rep, err := Run(context.Background(), points, Options{Workers: 2, Cache: NewCache(), Simulate: exploding})
	if err == nil {
		t.Fatal("panicking point produced no sweep error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "simulated invariant violation") {
		t.Fatalf("panic not surfaced in error: %v", err)
	}
	if rep.Points[1].Err == nil || rep.Points[1].Results != nil {
		t.Fatalf("panicking point outcome wrong: %+v", rep.Points[1])
	}
	// The healthy points still completed.
	if rep.Points[0].Results == nil || rep.Points[2].Results == nil {
		t.Fatal("healthy points lost to a neighbouring panic")
	}
	if rep.Failed != 1 {
		t.Fatalf("failed=%d", rep.Failed)
	}
}

func TestAllErrorsJoined(t *testing.T) {
	bad1 := tinyCfg(core.DesignSRL, 600)
	bad1.RunUops = 0 // rejected by Validate
	bad2 := tinyCfg(core.DesignSRL, 600)
	bad2.Checkpoints = 1 // rejected by Validate
	points := []Point{
		{Label: "bad1", Cfg: bad1, Suite: trace.WEB},
		{Label: "bad2", Cfg: bad2, Suite: trace.WEB},
		{Label: "good", Cfg: tinyCfg(core.DesignBaseline, 600), Suite: trace.WEB},
	}
	rep, err := Run(context.Background(), points, Options{Workers: 1, NoCache: true})
	if err == nil {
		t.Fatal("invalid points produced no error")
	}
	for _, want := range []string{"bad1", "bad2", "RunUops", "checkpoints"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
	if rep.Points[2].Results == nil {
		t.Fatal("valid point did not run despite sibling errors")
	}
}

func TestProgressCallback(t *testing.T) {
	var calls atomic.Int64
	var lastDone atomic.Int64
	opts := Options{
		Workers: 1,
		NoCache: true,
		Simulate: func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
			return fakeResults(cfg, suite), nil
		},
		Progress: func(p Progress) {
			calls.Add(1)
			lastDone.Store(int64(p.Done))
			if p.Total != 3 {
				t.Errorf("total %d", p.Total)
			}
		},
	}
	points := []Point{
		{Label: "a", Cfg: tinyCfg(core.DesignSRL, 700), Suite: trace.WEB},
		{Label: "b", Cfg: tinyCfg(core.DesignSRL, 701), Suite: trace.WEB},
		{Label: "c", Cfg: tinyCfg(core.DesignSRL, 702), Suite: trace.WEB},
	}
	if _, err := Run(context.Background(), points, opts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || lastDone.Load() != 3 {
		t.Fatalf("progress calls=%d lastDone=%d", calls.Load(), lastDone.Load())
	}
}

// TestRecordAtIndex drives the bookkeeping a cluster dispatch keeps:
// outcomes recorded out of order land at their points' indexes, each
// progress snapshot counts what is recorded so far, and Finish fails the
// point nothing was recorded for, wrapping the cause, and joins the errors.
func TestRecordAtIndex(t *testing.T) {
	points := make([]Point, 4)
	for i := range points {
		points[i] = Point{Label: fmt.Sprintf("r%d", i), Cfg: tinyCfg(core.DesignSRL, 900+uint64(i)), Suite: trace.PROD}
	}
	rep := NewReport(points)
	res := fakeResults(points[0].Cfg, points[0].Suite)
	boom := errors.New("boom")
	for k, step := range []struct {
		at int
		pr PointResult
	}{
		{2, PointResult{Results: res, CacheHit: true}},
		{0, PointResult{Err: boom}},
		{3, PointResult{Results: res}},
	} {
		p := rep.Record(step.at, step.pr)
		if p.Done != k+1 || p.Total != len(points) || p.Last.Label != points[step.at].Label {
			t.Fatalf("step %d: progress %+v", k, p)
		}
	}
	if rep.CacheHits != 1 || rep.Simulated != 1 || rep.Failed != 1 {
		t.Fatalf("counters hits=%d simulated=%d failed=%d, want 1/1/1", rep.CacheHits, rep.Simulated, rep.Failed)
	}
	err := rep.Finish(context.Canceled)
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) || err != rep.Err {
		t.Fatalf("Finish joined %v", err)
	}
	if !errors.Is(rep.Points[1].Err, context.Canceled) || rep.Failed != 2 {
		t.Fatalf("unreached point: err %v, failed %d", rep.Points[1].Err, rep.Failed)
	}
	for i := range points {
		if rep.Points[i].Point.Label != points[i].Label {
			t.Fatalf("point %d is %s, want %s", i, rep.Points[i].Point, points[i])
		}
	}
	if rep.Points[2].Results != res || !rep.Points[2].CacheHit || rep.Points[3].Results != res {
		t.Fatalf("report %+v", rep)
	}
}

func TestReportHelpers(t *testing.T) {
	p := Point{Label: "x", Cfg: tinyCfg(core.DesignBaseline, 800), Suite: trace.SINT2K}
	rep, err := Run(context.Background(), []Point{p}, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Get("x", trace.SINT2K) == nil || rep.Get("y", trace.SINT2K) != nil {
		t.Fatal("Get lookup wrong")
	}
	if rep.TotalSimulatedUops() == 0 || rep.Throughput() <= 0 {
		t.Fatalf("metrics empty: %s", rep)
	}
	if !strings.Contains(rep.String(), "1 points") {
		t.Fatalf("render: %s", rep)
	}
}

// TestOnePointHitAllocs bounds what a one-point memo hit allocates, the
// sweep every /v1/simulate hit runs: the report, its point slice and the
// pool's shared state. A goroutine, a channel or a formatted fingerprint
// on this path would each break the bound.
func TestOnePointHitAllocs(t *testing.T) {
	cache := NewCache()
	ctx := context.Background()
	p := Point{Label: "hit", Cfg: tinyCfg(core.DesignSRL, 1), Suite: trace.SFP2K}
	opts := Options{Workers: 1, Cache: cache, Simulate: func(_ context.Context, cfg core.Config, su trace.Suite) (*core.Results, error) {
		return fakeResults(cfg, su), nil
	}}
	points := []Point{p}
	if _, err := Run(ctx, points, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rep, err := Run(ctx, points, opts)
		if err != nil || !rep.Points[0].CacheHit {
			t.Fatalf("memo hit missed: %v", err)
		}
	})
	t.Logf("a one-point memo hit allocates %.0f times", allocs)
	if allocs > 3 {
		t.Fatalf("a one-point memo hit allocates %.0f times, want at most 3", allocs)
	}
}
