package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/multicore"
	"srlproc/internal/trace"
)

// The simulated programs of every workload are fixed and the seed only
// orders them: between trace seeds the 14 deep-memory points took from 1.8 s
// to 3.2 s in all, a spread that would bury any change of the code.

// deepRound is the deep-memory workload: the baseline and SRL machines on
// every suite at the far end of the paper's growing memory gap (8000-cycle
// memory, no prefetcher), where most cycles are skipped. Set-up builds the
// cores; the round runs them, one op each.
type deepRound struct {
	t      *tally
	pts    []deepPoint
	traced bool
}

type deepPoint struct {
	cfg   core.Config
	suite trace.Suite
	c     *core.Core
	src   *countingSource
	doc   []byte // the skip-mode Results document, kept for the step-mode rerun
	wall  time.Duration
}

func setupDeepMemory(ctx context.Context, o *opts, t *tally) (round, error) {
	seeds, suites, warm, run := []uint64{1, 2}, trace.AllSuites(), uint64(4000), uint64(20000)
	if o.smoke {
		seeds, suites, warm, run = []uint64{1}, suites[:2], 100, 500
	}
	var pts []deepPoint
	for _, seed := range seeds {
		for _, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL} {
			for _, s := range suites {
				cfg := core.DefaultConfig(d)
				cfg.Seed, cfg.WarmupUops, cfg.RunUops = seed, warm, run
				cfg.Mem.MemLatency = 8000
				cfg.Mem.PrefetchOn = false
				pts = append(pts, deepPoint{cfg: cfg, suite: s})
			}
		}
	}
	rand.New(rand.NewPCG(o.seed, 2)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	for i := range pts {
		p := &pts[i]
		var err error
		if p.c, p.src, err = t.newCore(p.cfg, p.suite, int(t.phase.Load())); err != nil {
			return nil, err
		}
	}
	return &deepRound{t: t, pts: pts, traced: t.rec != nil}, nil
}

func (r *deepRound) run(ctx context.Context) error {
	t := r.t
	for i := range r.pts {
		p := &r.pts[i]
		res, d, err := t.runCore(ctx, p.c, p.src, p.cfg.WarmupUops, int(t.phase.Load()))
		p.c = nil
		t.attempt(1)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			t.fail("%s/%s: %v", p.cfg.Design, p.suite, err)
			continue
		}
		t.op(d, p.cfg.WarmupUops+res.Uops)
		t.line("deep/"+p.cfg.Design.String(), p.cfg.Seed, res)
		if r.traced {
			p.wall = d
			if p.doc, err = json.Marshal(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// check, in the traced round, re-runs every point with event skipping off:
// the Results documents must match byte for byte, and the wall-time ratio
// is core.skip.speedup.
func (r *deepRound) check(ctx context.Context) error {
	if !r.traced {
		return nil
	}
	t := r.t
	parent := t.rec.begin("step-mode rerun", int(t.phase.Load()))
	defer t.rec.end(parent)
	for _, p := range r.pts {
		if p.doc == nil {
			continue
		}
		cfg := p.cfg
		cfg.EventSkip = false
		c, err := core.New(cfg, p.suite)
		if err != nil {
			return err
		}
		id := t.rec.begin("core.RunContext (step mode)", parent)
		start := time.Now()
		res, err := c.RunContext(ctx)
		d := time.Since(start)
		t.rec.end(id)
		if err != nil {
			return err
		}
		doc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		t.attempt(1)
		if !bytes.Equal(doc, p.doc) {
			t.fail("%s/%s seed %d: step-mode results differ from skip-mode results", cfg.Design, p.suite, cfg.Seed)
		}
		t.update(func(l *layers) { l.stepNs += int64(d); l.skipNs += int64(p.wall) })
	}
	return nil
}

func (r *deepRound) close() error { return nil }

// mcRound is the multicore workload: 2- and 4-core lockstep systems of the
// baseline and SRL machines on SERVER and SFP2K at the default sharing and
// run length. It is the only workload with bus delivery; nothing in it
// skips cycles or memoizes, so it is the control for both. Set-up builds
// the systems; the round runs them, one op each.
type mcRound struct {
	t    *tally
	sims []mcSim
}

type mcSim struct {
	cfg multicore.Config
	sys *multicore.System
}

func setupMulticore(ctx context.Context, o *opts, t *tally) (round, error) {
	var sims []mcSim
	for _, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL} {
		for _, n := range []int{2, 4} {
			for _, s := range []trace.Suite{trace.SERVER, trace.SFP2K} {
				cfg := multicore.DefaultConfig(d, s)
				cfg.Cores = n
				if o.smoke {
					cfg.Core.WarmupUops, cfg.Core.RunUops = 100, 500
				}
				sims = append(sims, mcSim{cfg: cfg})
			}
		}
	}
	rand.New(rand.NewPCG(o.seed, 3)).Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	for i := range sims {
		s := &sims[i]
		id := t.rec.begin("multicore.New", int(t.phase.Load()))
		start := time.Now()
		sys, err := multicore.New(s.cfg)
		d := time.Since(start)
		t.rec.end(id)
		if err != nil {
			return nil, err
		}
		s.sys = sys
		t.update(func(l *layers) { l.newNs += int64(d); l.newCores += int64(s.cfg.Cores) })
	}
	return &mcRound{t: t, sims: sims}, nil
}

func (r *mcRound) run(ctx context.Context) error {
	t := r.t
	for i := range r.sims {
		s := &r.sims[i]
		id := t.rec.begin("multicore.RunContext", int(t.phase.Load()))
		start := time.Now()
		res, err := s.sys.RunContext(ctx)
		d := time.Since(start)
		t.rec.end(id)
		s.sys = nil
		t.attempt(1)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			t.fail("%d-core %s/%s: %v", s.cfg.Cores, s.cfg.Core.Design, s.cfg.Suite, err)
			continue
		}
		var uops uint64
		for c, pr := range res.PerCore {
			uops += s.cfg.Core.WarmupUops + pr.Uops
			// multicore.New seeds core c with Core.Seed + c*7919.
			t.line(fmt.Sprintf("mc/%dc/core%d", s.cfg.Cores, c), s.cfg.Core.Seed+uint64(c)*7919, pr)
		}
		t.op(d, uops)
		t.update(func(l *layers) {
			l.runNs += int64(d)
			l.runUops += uops
			l.mcNs += int64(d)
			l.mcCycles += res.Cycles
			l.mcSnoops += res.SnoopsDelivered
		})
	}
	return nil
}

func (r *mcRound) check(context.Context) error { return nil }

func (r *mcRound) close() error { return nil }
