package sweep

import (
	"context"
	"sync/atomic"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

// TestConcurrentProgressWithObservability drives a parallel sweep of
// observed simulations with a concurrent ProgressFunc. Run under -race
// (make verify) it proves the progress callback and the per-core samplers
// share no unsynchronised state.
func TestConcurrentProgressWithObservability(t *testing.T) {
	var points []Point
	for i, seed := range []uint64{201, 202, 203, 204, 205, 206} {
		cfg := tinyCfg(core.DesignSRL, seed)
		cfg.Obs.SampleEvery = 256
		cfg.Obs.TraceEvents = true
		points = append(points, Point{Label: "obs", Cfg: cfg, Suite: trace.Suite(i % 3)})
	}
	var calls atomic.Int64
	var lastDone atomic.Int64
	rep, err := Run(context.Background(), points, Options{
		Workers: 4,
		NoCache: true,
		Progress: func(p Progress) {
			calls.Add(1)
			lastDone.Store(int64(p.Done))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(points)) {
		t.Fatalf("progress calls = %d, want %d", got, len(points))
	}
	for i := range rep.Points {
		res := rep.Points[i].Results
		if res == nil {
			t.Fatalf("point %d: nil results", i)
		}
		if res.Timeline == nil || res.Timeline.Len() == 0 {
			t.Fatalf("point %d: no timeline samples", i)
		}
		if res.Trace == nil || res.Trace.Count(0) == 0 && res.Trace.Len() == 0 {
			t.Fatalf("point %d: no trace events", i)
		}
	}
}
