// Package sweep is the experiment-orchestration engine: it runs a set of
// (config, suite) simulation points on a bounded worker pool with
// context.Context cancellation, per-worker panic isolation, progress
// reporting, per-point timing and throughput metrics, and process-wide
// result memoization keyed by a stable config fingerprint.
//
// Package bench builds every table and figure of the paper's evaluation on
// top of this engine; the srlproc facade exposes its knobs (workers,
// progress, cache bypass) through bench.Options and the *Context API.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

// Point is one simulation job: a configuration on a workload suite, with a
// free-form label the caller uses to key its aggregation.
type Point struct {
	Label string
	Cfg   core.Config
	Suite trace.Suite
}

func (p Point) String() string { return p.Label + "/" + p.Suite.String() }

// Progress is a snapshot handed to the ProgressFunc after every completed
// point.
type Progress struct {
	Done      int           // points finished (including failures and hits)
	Total     int           // points in the sweep
	CacheHits int           // points served from the memo cache so far
	Failed    int           // points that returned an error so far
	Elapsed   time.Duration // wall time since the sweep started
	ETA       time.Duration // naive linear estimate of time remaining
	Last      Point         // the point that just finished
}

// ProgressFunc observes sweep progress. It is called from the workers (the
// first of them is Run's caller) with the engine's bookkeeping lock
// released; implementations must be safe for concurrent calls when
// Workers > 1.
type ProgressFunc func(Progress)

// SimulateFunc produces the results for one point. The default simulator
// builds a core and runs it under the context; tests substitute fakes.
type SimulateFunc func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error)

// Simulate is the default SimulateFunc: a fresh core.New + RunContext.
func Simulate(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
	c, err := core.New(cfg, suite)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// Options configure one sweep.
type Options struct {
	// Workers bounds the pool: 0 (or negative) means runtime.GOMAXPROCS,
	// 1 means fully serial, n > 1 means at most n points in flight.
	Workers int

	// Progress, when non-nil, is invoked after every completed point.
	Progress ProgressFunc

	// NoCache disables result memoization: every point simulates fresh
	// and nothing is published to the cache.
	NoCache bool

	// Cache overrides the memo cache; nil means the process-wide Global()
	// cache. Ignored when NoCache is set.
	Cache *Cache

	// Simulate overrides the point simulator; nil means Simulate. The
	// memo cache keys only on (config, suite), so substituting a
	// simulator mid-process should pair with a private Cache or NoCache.
	Simulate SimulateFunc
}

// PointResult is one point's outcome and cost.
type PointResult struct {
	Point    Point
	Results  *core.Results // nil on error
	Err      error         // nil on success
	Wall     time.Duration // wall time spent on this point (0 for cache hits)
	CacheHit bool
	// UopsPerSec is the simulated micro-op throughput of this point
	// (warmup + measured uops over wall time); 0 for cache hits.
	UopsPerSec float64
}

// Report aggregates a sweep: per-point outcomes in input order plus
// whole-sweep metrics.
type Report struct {
	Points    []PointResult
	Elapsed   time.Duration
	CacheHits int
	Simulated int // points that ran a fresh simulation
	Failed    int
	// Workers is the pool size the sweep actually used (after clamping to
	// the point count).
	Workers int
	// Err is every point error joined with errors.Join (nil if none). A
	// cancelled sweep's Err wraps ctx.Err().
	Err error
}

// CacheHitRatio returns the fraction of points served from the memo cache
// (0 for an empty sweep).
func (r *Report) CacheHitRatio() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(len(r.Points))
}

// WorkerUtilization returns the mean busy fraction of the worker pool:
// total per-point wall time over Workers x Elapsed. 1.0 means every worker
// simulated for the whole sweep; low values mean the pool idled (cache
// hits, stragglers, or too many workers).
func (r *Report) WorkerUtilization() float64 {
	if r.Workers <= 0 || r.Elapsed <= 0 {
		return 0
	}
	var busy time.Duration
	for i := range r.Points {
		busy += r.Points[i].Wall
	}
	return busy.Seconds() / (float64(r.Workers) * r.Elapsed.Seconds())
}

// Get returns the results for the first point matching label and suite, or
// nil if it is absent or failed.
func (r *Report) Get(label string, suite trace.Suite) *core.Results {
	for i := range r.Points {
		if r.Points[i].Point.Label == label && r.Points[i].Point.Suite == suite {
			return r.Points[i].Results
		}
	}
	return nil
}

// TotalSimulatedUops sums warmup+measured micro-ops over freshly simulated
// points (cache hits cost nothing and count nothing).
func (r *Report) TotalSimulatedUops() uint64 {
	var n uint64
	for i := range r.Points {
		if pr := &r.Points[i]; !pr.CacheHit && pr.Results != nil {
			n += pr.Point.Cfg.WarmupUops + pr.Results.Uops
		}
	}
	return n
}

// Throughput returns aggregate simulated micro-ops per wall second.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSimulatedUops()) / r.Elapsed.Seconds()
}

// String summarises the sweep for humans.
func (r *Report) String() string {
	return fmt.Sprintf("sweep: %d points (%d simulated, %d cached, %d failed) in %v, %.0f uops/s",
		len(r.Points), r.Simulated, r.CacheHits, r.Failed, r.Elapsed.Round(time.Millisecond), r.Throughput())
}

// Run executes every point on a bounded worker pool and returns the report
// plus the join of all point errors (also stored in Report.Err).
//
// Results are deterministic in the points, not the pool: Report.Points is
// in input order and each point's Results depend only on its config, so
// any Workers value yields identical aggregates.
//
// Cancelling ctx stops the sweep promptly: in-flight simulations poll the
// context and abort, queued points are never started, and every point that
// did not complete carries (and Err wraps) ctx.Err(). A panic inside a
// point is recovered and surfaced as that point's error; the sweep and the
// process keep running.
func Run(ctx context.Context, points []Point, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Points: make([]PointResult, len(points))}
	for i := range points {
		rep.Points[i].Point = points[i]
	}
	if len(points) == 0 {
		rep.Elapsed = time.Since(start)
		return rep, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	sim := opts.Simulate
	if sim == nil {
		sim = Simulate
	}
	cache := opts.Cache
	if cache == nil {
		cache = globalCache
	}
	if opts.NoCache {
		cache = nil
	}

	rep.Workers = workers

	// Worker 0 is the calling goroutine, so a serial or one-point sweep
	// (every /v1/simulate request) starts no goroutine.
	p := &pool{ctx: ctx, points: points, cache: cache, sim: sim, progress: opts.Progress, start: start, rep: rep}
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	func() {
		// A panicking Progress callback unwinds the caller only after the
		// other workers have stopped writing into rep.
		defer p.wg.Wait()
		p.work()
	}()
	rep.Elapsed = time.Since(start)

	// Points the pool never reached (cancellation) carry the context error.
	if ctx.Err() != nil {
		for i := range rep.Points {
			pr := &rep.Points[i]
			if pr.Results == nil && pr.Err == nil {
				pr.Err = fmt.Errorf("sweep: point not run: %w", ctx.Err())
				rep.Failed++
			}
		}
	}
	var errs []error
	for i := range rep.Points {
		if pr := &rep.Points[i]; pr.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pr.Point, pr.Err))
		}
	}
	rep.Err = errors.Join(errs...)
	return rep, rep.Err
}

// pool is one sweep's shared state: workers claim points from next in
// input order and record each outcome in rep under mu.
type pool struct {
	ctx      context.Context
	points   []Point
	cache    *Cache
	sim      SimulateFunc
	progress ProgressFunc
	start    time.Time
	rep      *Report

	next atomic.Int64
	wg   sync.WaitGroup
	mu   sync.Mutex
	done int
}

// work runs points until none is left or the context is done.
func (p *pool) work() {
	rep := p.rep
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.points) || p.ctx.Err() != nil {
			return
		}
		pr := runOne(p.ctx, p.cache, p.sim, p.points[i])
		p.mu.Lock()
		rep.Points[i] = pr
		if pr.CacheHit {
			rep.CacheHits++
		} else if pr.Err == nil {
			rep.Simulated++
		}
		if pr.Err != nil {
			rep.Failed++
		}
		p.done++
		prog := Progress{
			Done:      p.done,
			Total:     len(p.points),
			CacheHits: rep.CacheHits,
			Failed:    rep.Failed,
			Elapsed:   time.Since(p.start),
			Last:      p.points[i],
		}
		p.mu.Unlock()
		if prog.Done > 0 && prog.Done < prog.Total {
			prog.ETA = time.Duration(float64(prog.Elapsed) / float64(prog.Done) * float64(prog.Total-prog.Done))
		}
		if p.progress != nil {
			p.progress(prog)
		}
	}
}

// runOne executes one point, converting panics (from the simulator or the
// config machinery) into point-level errors.
func runOne(ctx context.Context, cache *Cache, sim SimulateFunc, p Point) (pr PointResult) {
	pr.Point = p
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			pr.Results = nil
			pr.Err = fmt.Errorf("sweep: point panicked: %v", r)
			pr.Wall = time.Since(start)
		}
	}()
	if cache == nil {
		pr.Results, pr.Err = sim(ctx, p.Cfg, p.Suite)
	} else {
		pr.Results, pr.CacheHit, pr.Err = cache.do(ctx, p.Cfg, p.Suite, func() (*core.Results, error) {
			return sim(ctx, p.Cfg, p.Suite)
		})
	}
	pr.Wall = time.Since(start)
	if pr.Err == nil && !pr.CacheHit && pr.Wall > 0 {
		pr.UopsPerSec = float64(p.Cfg.WarmupUops+pr.Results.Uops) / pr.Wall.Seconds()
	}
	return pr
}
