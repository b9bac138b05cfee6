package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// opts configures one workload run.
type opts struct {
	root     string        // repository root; paper-grid reads its experiment grid there
	seed     uint64        // orders the workload's inputs
	budget   time.Duration // rounds are added while they fit in about this much time
	smoke    bool          // tiny inputs, for tests
	traceDir string        // where a traced run writes its profile, spans and layers
	workDir  string        // where the service workload keeps its stores
	expected string        // expected digests file
	update   bool          // write the digest to expected instead of checking it

	// wrap, when set, wraps the service's HTTP handler; tests inject faults with it.
	wrap func(http.Handler) http.Handler
}

func (o *opts) scale() string {
	if o.smoke {
		return "smoke"
	}
	return "full"
}

// A workload sets up rounds: fixed units of work that the engine times and
// checks. Every round of a run does the same work, so their outputs must
// digest the same.
type workload struct {
	name  string
	setup func(ctx context.Context, o *opts, t *tally) (round, error)
}

// round is one set-up unit of work.
type round interface {
	// run does the round's timed work.
	run(ctx context.Context) error
	// check verifies outputs beyond the timed work; it is not timed.
	check(ctx context.Context) error
	// close releases what set-up acquired. It is called once, after run and
	// check or instead of them.
	close() error
}

var workloads = []workload{
	{"paper-grid", setupGrid},
	{"deep-memory", setupDeepMemory},
	{"multicore", setupMulticore},
	{"service", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally collects what a run measures. It is safe for concurrent use: the
// service's clients, its store and the prewarm sweep record from several
// goroutines.
type tally struct {
	mu        sync.Mutex
	ops       []float64 // latency of every timed op, ms
	freshUops uint64    // uops simulated by timed ops
	attempted int
	failed    int
	problems  []string // the first few failures
	lines     []string // digest lines of the current round
	lay       layers

	rec       *recorder    // span recorder; nil outside the traced round
	countNext bool         // count trace-source calls (traced round only)
	phase     atomic.Int64 // span id that store calls and top-level spans hang from
}

// layers accumulates the per-layer numbers of the traced round.
type layers struct {
	newNs, newCores     int64
	runNs               int64
	runUops, nextCalls  uint64
	sweepNs, sweepSimNs int64
	sweepPoints         int
	sweepHits           int
	sweepSimulated      int
	planNs, assembleNs  int64
	mcNs                int64
	mcCycles, mcSnoops  uint64
	stepNs, skipNs      int64

	storeGetUs, storePutUs []float64
	storeGetHits           int
	hitMs, missMs          []float64
	storeHitMs             []float64
	inprocHitUs            []float64
	mixedNs                int64
	mixedReqs              int
	cacheHits, cacheMisses uint64
	shed                   uint64
}

const maxProblems = 8

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// op records one timed op and the uops it simulated.
func (t *tally) op(d time.Duration, uops uint64) {
	t.mu.Lock()
	t.ops = append(t.ops, ms(d))
	t.freshUops += uops
	t.mu.Unlock()
}

// line adds one point's projection to the round's digest.
func (t *tally) line(label string, seed uint64, r *core.Results) {
	l := fmt.Sprintf("%s|%s|%s|%d|%d,%d,%d,%d,%d,%d,%d,%d,%d,%d", label, r.Design, r.Suite, seed,
		r.Cycles, r.Uops, r.Loads, r.Stores, r.RedoneStores, r.Restarts, r.ReplayedUops,
		r.L1Misses, r.L2Misses, r.MemAccesses)
	t.mu.Lock()
	t.lines = append(t.lines, l)
	t.mu.Unlock()
}

func (t *tally) takeLines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.lines
	t.lines = nil
	return l
}

// update applies f to the layer accumulators under the lock.
func (t *tally) update(f func(l *layers)) {
	t.mu.Lock()
	f(&t.lay)
	t.mu.Unlock()
}

// countingSource counts the micro-ops a core pulls from its trace source.
type countingSource struct {
	src trace.Source
	n   uint64
}

func (s *countingSource) Next() isa.Uop {
	s.n++
	return s.src.Next()
}

// newCore builds one core and times core.New. In the traced round the trace
// source is wrapped to count Next calls, which means building the generator
// the way core.New does; the digest check catches any drift between the two.
func (t *tally) newCore(cfg core.Config, suite trace.Suite, parent int) (*core.Core, *countingSource, error) {
	id := t.rec.begin("core.New", parent)
	start := time.Now()
	var (
		c   *core.Core
		src *countingSource
		err error
	)
	if t.countNext {
		prof := trace.ProfileFor(suite)
		prof.FencePer1K, prof.AcquireFrac, prof.ReleaseFrac = cfg.FencePer1K, cfg.AcquireFrac, cfg.ReleaseFrac
		src = &countingSource{src: trace.NewGenerator(prof, cfg.Seed)}
		c, err = core.NewFromSource(cfg, src, prof)
	} else {
		c, err = core.New(cfg, suite)
	}
	d := time.Since(start)
	t.rec.end(id)
	t.update(func(l *layers) { l.newNs += int64(d); l.newCores++ })
	return c, src, err
}

// runCore runs a built core to completion and times core.RunContext.
func (t *tally) runCore(ctx context.Context, c *core.Core, src *countingSource, warmup uint64, parent int) (*core.Results, time.Duration, error) {
	id := t.rec.begin("core.RunContext", parent)
	start := time.Now()
	res, err := c.RunContext(ctx)
	d := time.Since(start)
	t.rec.end(id)
	if err != nil {
		return nil, d, err
	}
	t.update(func(l *layers) {
		l.runNs += int64(d)
		l.runUops += warmup + res.Uops
		if src != nil {
			l.nextCalls += src.n
		}
	})
	return res, d, nil
}

// sweep runs points through sweep.Run with a timing Simulate wrapper. When
// ops is set, every fresh point is one of the round's timed ops. Point
// errors count as failures; the report is returned either way.
func (t *tally) sweep(ctx context.Context, pts []sweep.Point, so sweep.Options, parent int, ops bool) (*sweep.Report, error) {
	id := t.rec.begin("sweep.Run", parent)
	var simNs atomic.Int64
	concurrent := so.Workers != 1
	so.Simulate = func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		begin := t.rec.begin
		if concurrent {
			begin = t.rec.beginLane
		}
		pid := begin("point", id)
		defer t.rec.end(pid)
		start := time.Now()
		c, src, err := t.newCore(cfg, suite, pid)
		if err != nil {
			return nil, err
		}
		res, _, err := t.runCore(ctx, c, src, cfg.WarmupUops, pid)
		d := time.Since(start)
		simNs.Add(int64(d))
		if err == nil && ops {
			t.op(d, cfg.WarmupUops+res.Uops)
		}
		return res, err
	}
	start := time.Now()
	rep, err := sweep.Run(ctx, pts, so)
	wall := time.Since(start)
	t.rec.end(id)
	t.update(func(l *layers) {
		if !concurrent { // wall minus simulation time means nothing when simulations overlap
			l.sweepNs += int64(wall)
			l.sweepSimNs += simNs.Load()
		}
		l.sweepPoints += len(rep.Points)
		l.sweepHits += rep.CacheHits
		l.sweepSimulated += rep.Simulated
	})
	for i := range rep.Points {
		if pr := &rep.Points[i]; pr.Err != nil {
			t.fail("%s: %v", pr.Point, pr.Err)
		}
	}
	return rep, err
}

// outcome is what one run prints: human-readable lines, then the result.
type outcome struct {
	info   []string
	res    result
	digest string
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs a workload untraced. It adds rounds, each after its own
// set-up, while they fit in about o.budget, and reports the end-to-end
// metrics, scaled to the nominal host speed (see hostspeed.go).
func measure(ctx context.Context, w workload, o *opts) (*outcome, error) {
	t := &tally{}
	meter := startHostMeter()
	defer meter.stop()
	var setups, walls, allocs []float64
	var digest string
	var live float64
	for planned := 1; len(walls) < planned; {
		s, err := oneRound(ctx, w, o, t, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, len(walls)+1, err)
		}
		setups, walls, allocs = append(setups, s.setup.Seconds()), append(walls, s.wall.Seconds()), append(allocs, s.allocMiB)
		live = max(live, s.liveMiB)
		if len(walls) == 1 {
			digest = s.digest
			planned = max(1, int(math.Round(float64(o.budget)/float64(s.setup+s.wall))))
		} else if s.digest != digest {
			t.fail("round %d digest %.16s differs from round 1's %.16s", len(walls), s.digest, digest)
		}
		// Set up alone more times, so that setup_s is a median of at least
		// three and, for cheap set-ups, of up to 200 or half a second's worth.
		// A share of them follows every round: a set-up takes too little
		// time to see more than the moment's host speed, so its samples are
		// spread over the run like the rounds.
		done := float64(len(walls)) / float64(planned)
		for len(setups) < int(math.Ceil(3*done)) || (len(setups) < int(200*done) && sum(setups) < 0.5*done) {
			d, err := setupAlone(ctx, w, o, t)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, d.Seconds())
		}
	}
	scale, passMs, passes, err := meter.scale()
	if err != nil {
		return nil, fmt.Errorf("host speed meter: %w", err)
	}
	slices.Sort(t.ops)
	wall, setup, op := median(walls), median(setups), quantile(t.ops, 0.50)
	m := map[string]float64{
		"wall_s":         scale * wall,
		"sim_uops_per_s": float64(t.freshUops) / float64(len(walls)) / (scale * wall),
		"setup_s":        scale * setup,
		"live_heap_mib":  live,
		"alloc_mib":      median(allocs),
		"op_p50_ms":      scale * op,
	}
	out := &outcome{info: []string{
		fmt.Sprintf("srlbench %s: seed %d, %d round(s), %d set-up(s), %d timed ops",
			w.name, o.seed, len(walls), len(setups), len(t.ops)),
		fmt.Sprintf("  host speed: reference pass %.4g ms (mean of %d); timings x (%.4g ms / pass)^%.2g = %.4f; raw wall_s %.6g, setup_s %.6g, op_p50_ms %.6g",
			passMs, passes, refNominalMs, refExponent, scale, wall, setup, op),
	}}
	notes := map[string]string{
		"wall_s":        fmt.Sprintf("median of %d rounds", len(walls)),
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(setups)),
		"alloc_mib":     fmt.Sprintf("median of %d rounds", len(walls)),
		"live_heap_mib": fmt.Sprintf("largest of %d rounds", len(walls)),
		"op_p50_ms":     fmt.Sprintf("n=%d", len(t.ops)),
	}
	out.res.Metrics, out.info, err = collect(endToEnd, m, notes, out.info)
	if err != nil {
		return nil, err
	}
	return finishOutcome(out, w, o, t, digest)
}

// setupAlone times one set-up, from the same heap as a round's, and closes
// what it built.
func setupAlone(ctx context.Context, w workload, o *opts, t *tally) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	r, err := w.setup(ctx, o, t)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, r.close()
}

// traceMeasure runs one untraced round, then one traced round with a CPU
// profile and spans, and reports the per-layer metrics. The difference in
// wall time between the two rounds is the tracing overhead.
func traceMeasure(ctx context.Context, w workload, o *opts) (*outcome, error) {
	t := &tally{}
	plain, err := oneRound(ctx, w, o, t, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s untraced round: %w", w.name, err)
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.traceDir, w.name)
	pf, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	t.lay, t.rec, t.countNext = layers{}, newRecorder(), true
	root := t.rec.begin(w.name, 0)
	traced, err := oneRound(ctx, w, o, t, pf, root)
	t.rec.end(root)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", w.name, err)
	}
	digest := plain.digest
	if traced.digest != digest {
		t.fail("traced round digest %.16s differs from the untraced round's %.16s", traced.digest, digest)
	}
	prof, err := readCPUProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	m := layerMetrics(&t.lay, prof, traced.gcPause)
	if err := t.rec.writeChrome(base + ".spans.json"); err != nil {
		return nil, err
	}
	plainWall, tracedWall := plain.setup+plain.wall, traced.setup+traced.wall
	overhead := tracedWall - plainWall
	layersDoc := map[string]any{
		"workload":         w.name,
		"seed":             o.seed,
		"metrics":          m,
		"spans":            t.rec.aggregate(),
		"profile_samples":  prof.total,
		"trace_overhead_s": overhead.Seconds(),
	}
	if err := writeJSONFile(base+".layers.json", layersDoc); err != nil {
		return nil, err
	}
	out := &outcome{info: []string{
		fmt.Sprintf("srlbench %s: traced round, seed %d, %d profile samples, files %s.{cpu.pprof,spans.json,layers.json}",
			w.name, o.seed, prof.total, base),
		fmt.Sprintf("  tracing overhead: traced round %.3f s - untraced round %.3f s = %+.3f s (%+.1f%%)",
			tracedWall.Seconds(), plainWall.Seconds(), overhead.Seconds(), 100*overhead.Seconds()/plainWall.Seconds()),
	}}
	notes := map[string]string{
		"serve.hit_p50_ms":       fmt.Sprintf("n=%d", len(t.lay.hitMs)),
		"serve.hit_p90_ms":       fmt.Sprintf("n=%d, %d beyond", len(t.lay.hitMs), beyond(len(t.lay.hitMs), 0.90)),
		"serve.miss_p50_ms":      fmt.Sprintf("n=%d", len(t.lay.missMs)),
		"serve.miss_p90_ms":      fmt.Sprintf("n=%d, %d beyond", len(t.lay.missMs), beyond(len(t.lay.missMs), 0.90)),
		"serve.store_hit_p50_ms": fmt.Sprintf("n=%d", len(t.lay.storeHitMs)),
		"store.get_us_p50":       fmt.Sprintf("n=%d", len(t.lay.storeGetUs)),
		"store.put_us_p50":       fmt.Sprintf("n=%d", len(t.lay.storePutUs)),
	}
	out.res.Metrics, out.info, err = collect(perLayer, m, notes, out.info)
	if err != nil {
		return nil, err
	}
	return finishOutcome(out, w, o, t, digest)
}

// roundStats is what one round measured.
type roundStats struct {
	setup, wall time.Duration
	allocMiB    float64       // heap allocated by the timed work
	liveMiB     float64       // the larger live heap after set-up and after the timed work
	gcPause     time.Duration // GC pauses during the timed work
	digest      string
}

// oneRound sets up, runs, checks and closes one round. Full GCs before the
// set-up and before the timed work start both from the same heap, with no
// collection of earlier garbage in progress; one after the timed work
// measures what the round keeps alive. In the traced round (prof set) the
// CPU profile covers exactly the timed work, and spans mark each phase
// under root.
func oneRound(ctx context.Context, w workload, o *opts, t *tally, prof *os.File, root int) (roundStats, error) {
	phase := func(name string, f func() error) (time.Duration, error) {
		id := t.rec.begin(name, root)
		t.phase.Store(int64(id))
		start := time.Now()
		err := f()
		d := time.Since(start)
		t.rec.end(id)
		return d, err
	}
	var (
		s       roundStats
		r       round
		err     error
		m0, m1  runtime.MemStats
		liveMiB = func(m *runtime.MemStats) float64 {
			runtime.GC()
			runtime.ReadMemStats(m)
			return float64(m.HeapAlloc) / (1 << 20)
		}
	)
	runtime.GC()
	if s.setup, err = phase("setup", func() (err error) {
		r, err = w.setup(ctx, o, t)
		return err
	}); err != nil {
		return s, err
	}
	s.liveMiB = liveMiB(&m0)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return s, errors.Join(err, r.close())
		}
	}
	s.wall, err = phase("round", func() error { return r.run(ctx) })
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	s.allocMiB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s.liveMiB = max(s.liveMiB, liveMiB(&m1))
	if err == nil {
		_, err = phase("check", func() error { return r.check(ctx) })
	}
	err = errors.Join(err, r.close())
	t.rec.adopt([]string{"store.Get", "store.Put"}, "request")
	s.digest = digestOf(t.takeLines())
	return s, err
}

// collect orders the measured values by their declarations, rejecting a
// missing or non-finite one, and appends one human-readable line each.
func collect(defs []metric, m map[string]float64, notes map[string]string, info []string) (map[string]value, []string, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s: no finite value (%v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
		info = append(info, fmt.Sprintf("  %-40s %14.6g %-8s %s", d.Name, v, d.Unit, notes[d.Name]))
	}
	return out, info, nil
}

// finishOutcome checks the run's digest against the expected file and
// fills in the counts.
func finishOutcome(out *outcome, w workload, o *opts, t *tally, digest string) (*outcome, error) {
	note, err := checkDigest(o, w.name, digest, t)
	if err != nil {
		return nil, err
	}
	out.info = append(out.info, "  "+note)
	out.digest = digest
	t.mu.Lock()
	defer t.mu.Unlock()
	out.res.Attempted = t.attempted
	out.res.Failed = t.failed
	out.res.Correct = t.failed == 0 && t.attempted > 0
	for _, p := range t.problems {
		out.info = append(out.info, "  FAILED: "+p)
	}
	if t.failed > len(t.problems) {
		out.info = append(out.info, fmt.Sprintf("  ... and %d more failures", t.failed-len(t.problems)))
	}
	return out, nil
}

// layerMetrics derives every per-layer metric from the traced round.
func layerMetrics(l *layers, p *cpuProfile, gcPause time.Duration) map[string]float64 {
	const corePkg = "srlproc/internal/core.(*Core)."
	m := map[string]float64{}
	for _, s := range stages {
		m["core.stage."+s+".cum_frac"] = p.cumFrac(named(corePkg + s))
	}
	slices.Sort(l.storeGetUs)
	slices.Sort(l.storePutUs)
	slices.Sort(l.hitMs)
	slices.Sort(l.missMs)
	slices.Sort(l.storeHitMs)
	slices.Sort(l.inprocHitUs)
	hitOverhead := 0.0
	if len(l.hitMs) > 0 && len(l.inprocHitUs) > 0 {
		hitOverhead = 1000*quantile(l.hitMs, 0.5) - quantile(l.inprocHitUs, 0.5)
	}
	for k, v := range map[string]float64{
		"core.step.cum_frac":              p.cumFrac(named(corePkg + "step")),
		"core.skip.cum_frac":              p.cumFrac(named(corePkg + "maybeSkip")),
		"core.skip.speedup":               ratio(float64(l.stepNs), float64(l.skipNs)),
		"core.new_ms":                     ratio(ms(time.Duration(l.newNs)), float64(l.newCores)),
		"core.run_us_per_kuop":            ratio(float64(l.runNs)/1e3, float64(l.runUops)/1e3),
		"trace.next.cum_frac":             p.cumFrac(named("srlproc/internal/trace.(*Generator).Next")),
		"trace.next_calls":                float64(l.nextCalls),
		"lsq.flat_frac":                   p.flatFrac(inPackage("srlproc/internal/lsq")),
		"cachesim.flat_frac":              p.flatFrac(inPackage("srlproc/internal/cachesim")),
		"heapq.flat_frac":                 p.flatFrac(inPackage("srlproc/internal/heapq")),
		"runtime.map_frac":                p.flatFrac(isMapFunc),
		"runtime.gc_frac":                 p.cumFrac(isGCFunc),
		"runtime.gc_pause_ms":             ms(gcPause),
		"sweep.memo_hit_ratio":            ratio(float64(l.sweepHits), float64(l.sweepPoints)),
		"sweep.simulated":                 float64(l.sweepSimulated),
		"sweep.overhead_ms":               ms(time.Duration(l.sweepNs - l.sweepSimNs)),
		"bench.plan_ms":                   ms(time.Duration(l.planNs)),
		"bench.assemble_ms":               ms(time.Duration(l.assembleNs)),
		"multicore.ns_per_lockstep_cycle": ratio(float64(l.mcNs), float64(l.mcCycles)),
		"multicore.snoops_per_kcycle":     1000 * ratio(float64(l.mcSnoops), float64(l.mcCycles)),
		"store.get_us_p50":                quantile(l.storeGetUs, 0.5),
		"store.put_us_p50":                quantile(l.storePutUs, 0.5),
		"store.gets":                      float64(len(l.storeGetUs)),
		"store.get_hits":                  float64(l.storeGetHits),
		"store.puts":                      float64(len(l.storePutUs)),
		"serve.req_per_s":                 ratio(float64(l.mixedReqs), time.Duration(l.mixedNs).Seconds()),
		"serve.hit_p50_ms":                quantile(l.hitMs, 0.50),
		"serve.hit_p90_ms":                quantile(l.hitMs, 0.90),
		"serve.miss_p50_ms":               quantile(l.missMs, 0.50),
		"serve.miss_p90_ms":               quantile(l.missMs, 0.90),
		"serve.store_hit_p50_ms":          quantile(l.storeHitMs, 0.50),
		"serve.hit_overhead_us":           hitOverhead,
		"serve.cache_hits":                float64(l.cacheHits),
		"serve.cache_misses":              float64(l.cacheMisses),
		"serve.shed":                      float64(l.shed),
	} {
		m[k] = v
	}
	return m
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
