package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/paper"
	"srlproc/internal/sweep"
)

// gridRound is the paper-grid workload: every experiment of the paper grid
// at its quick profile, run serially over one private memo cache, as
// `paperrepro -profile quick` runs them. The seed orders the experiments,
// which moves the memo hits between them but not their number.
type gridRound struct {
	t     *tally
	exps  []gridExp
	cache *sweep.Cache
}

type gridExp struct {
	id  bench.ExperimentID
	o   bench.Options
	pts []sweep.Point
}

func setupGrid(ctx context.Context, o *opts, t *tally) (round, error) {
	g, _, err := paper.LoadGrid(filepath.Join(o.root, "scripts", "paper", "experiments.json"))
	if err != nil {
		return nil, err
	}
	var only []bench.ExperimentID
	if o.smoke {
		only = []bench.ExperimentID{bench.Fig6, bench.Table3} // Table3 is all memo hits after Fig6
	}
	units, err := g.Plan("quick", only, 1)
	if err != nil {
		return nil, err
	}
	exps := make([]gridExp, len(units))
	for i, u := range units {
		if o.smoke {
			u.Options.RunUops, u.Options.WarmupUops = 300, 100
		}
		id := t.rec.begin("bench.ExperimentPoints", int(t.phase.Load()))
		start := time.Now()
		pts, err := bench.ExperimentPoints(u.ID, u.Options)
		d := time.Since(start)
		t.rec.end(id)
		if err != nil {
			return nil, err
		}
		t.update(func(l *layers) { l.planNs += int64(d) })
		exps[i] = gridExp{id: u.ID, o: u.Options, pts: pts}
	}
	rand.New(rand.NewPCG(o.seed, 1)).Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	return &gridRound{t: t, exps: exps, cache: sweep.NewCache()}, nil
}

func (g *gridRound) run(ctx context.Context) error {
	t := g.t
	for _, e := range g.exps {
		exp := t.rec.begin(e.id.String(), int(t.phase.Load()))
		rep, _ := t.sweep(ctx, e.pts, sweep.Options{Workers: 1, Cache: g.cache}, exp, true)
		t.attempt(len(e.pts))
		id := t.rec.begin("bench.AssembleExperiment", exp)
		start := time.Now()
		_, err := bench.AssembleExperiment(e.id, e.o, rep)
		d := time.Since(start)
		t.rec.end(id)
		t.update(func(l *layers) { l.assembleNs += int64(d) })
		if err != nil && rep.Failed == 0 {
			t.fail("%s: %v", e.id, err)
		}
		for _, pr := range rep.Points {
			if pr.Results != nil {
				t.line(fmt.Sprintf("%s/%s", e.id, pr.Point.Label), pr.Point.Cfg.Seed, pr.Results)
			}
		}
		t.rec.end(exp)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (g *gridRound) check(context.Context) error { return nil }

func (g *gridRound) close() error { return nil }
