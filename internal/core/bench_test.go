package core

import (
	"context"
	"testing"

	"srlproc/internal/isa"
	"srlproc/internal/trace"
)

// benchCore builds a core and warms it past the measurement reset so the
// pools and heaps have grown to their working size.
func benchCore(b *testing.B, cfg Config) *Core {
	b.Helper()
	cfg.WarmupUops = 5_000
	cfg.RunUops = 1 << 60 // never Done during the benchmark
	c, err := New(cfg, trace.SINT2K)
	if err != nil {
		b.Fatal(err)
	}
	for c.MeasuredUops() < 20_000 {
		c.StepCycle()
	}
	return c
}

// BenchmarkCycleLoop measures the steady-state cost of one simulated cycle
// on a warmed core — the innermost signal the CI bench gate watches. After
// the warm-up lap, allocs/op must stay at (or within rounding of) zero.
// SRL-sync adds the ordering experiment's fences, acquires and releases,
// so every ordering gate is on the measured path. ideal-1024STQ (Figure
// 6's single-level 1K-entry queue) and hierarchical-STQ (Table 1
// defaults, with its 1K-entry L2 STQ) are the designs whose large CAMs
// and 1K-entry load queue the store and load searches span.
func BenchmarkCycleLoop(b *testing.B) {
	ideal := DefaultConfig(DesignLargeSTQ)
	ideal.STQSize = 1024
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{DesignBaseline.String(), DefaultConfig(DesignBaseline)},
		{DesignSRL.String(), DefaultConfig(DesignSRL)},
		{"SRL-sync", withSyncKnobs(DefaultConfig(DesignSRL))},
		{"ideal-1024STQ", ideal},
		{DesignHierarchical.String(), DefaultConfig(DesignHierarchical)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := benchCore(b, tc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.StepCycle()
			}
		})
	}
}

// BenchmarkCycleLoopSkip measures event-driven cycle skipping (skip.go)
// against plain stepping on whole runs of the small-STQ baseline and of
// SRL in the paper's motivating regime: a deep memory latency (8000
// cycles, the "growing memory gap" end of Figure 1) with the prefetcher
// off, so every miss is a full DRAM shadow and the commit-blocked machine
// sits fully quiescent for most of its cycles. SRL's window holds far more
// misses, so its loads and drains retry a full MSHR file in nearly twice
// the share of cycles the baseline's do; the SRL rows show what crossing
// those waits saves. Each skip row
// must report the sim-cycles/op of its step row: they simulate the same
// machine, or the identity gate (TestSkipIdentityGoldenPoints) is broken.
// At the default 800-cycle latency with prefetching the skipped cycles are
// so cheap the win shrinks to 1-3%; here it is the headline number the CI
// gate pins.
func BenchmarkCycleLoopSkip(b *testing.B) {
	for _, row := range []struct {
		name   string
		design StoreDesign
		skip   bool
	}{
		{"skip", DesignBaseline, true},
		{"step", DesignBaseline, false},
		{"SRL-skip", DesignSRL, true},
		{"SRL-step", DesignSRL, false},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := deepCfg(row.design)
			cfg.EventSkip = row.skip
			b.ReportAllocs()
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := New(cfg, trace.SFP2K)
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
		})
	}
}

// BenchmarkReadyList measures the issue stage's ready list on its own: push
// is one cycle's worth of arrivals eight times over (64 entries, each
// eight-entry block pushed youngest first, as wake-ups arrive out of
// order), and scan is eight select passes over 64 entries with both ports
// taken, as issue() runs them: half are loads, which wait in the park lane
// the scan passes over, and half stores, which keep their place — the
// case a heap paid for with a pop and a re-push per entry.
func BenchmarkReadyList(b *testing.B) {
	var uops [64]dynUop
	for i := range uops {
		uops[i].u.Seq = uint64(i + 1)
		uops[i].u.Class = isa.Store
		if i%2 == 0 {
			uops[i].u.Class = isa.Load
		}
	}
	b.Run("push", func(b *testing.B) {
		var l readyList
		l.grow(len(uops), 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < 8; r++ {
				l.s = l.s[:0]
				for blk := 0; blk < len(uops); blk += 8 {
					for j := blk + 7; j >= blk; j-- {
						l.push(&uops[j])
					}
				}
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		var l readyList
		l.grow(len(uops), len(uops)/2)
		for j := range uops {
			l.push(&uops[j])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < 8; r++ {
				l.begin()
				for {
					e, ok := l.next(false)
					if !ok {
						break
					}
					if e.d.isLoad() {
						l.park(e)
					} else {
						l.keep(e)
					}
				}
				l.end()
			}
		}
	})
}

// BenchmarkIssueWidth measures the cycle loop at different issue widths —
// the knob design-point sweeps scale along, so its cost curve is the one a
// perf regression distorts first.
func BenchmarkIssueWidth(b *testing.B) {
	for _, w := range []int{2, 6, 12} {
		b.Run(map[int]string{2: "w2", 6: "w6", 12: "w12"}[w], func(b *testing.B) {
			cfg := DefaultConfig(DesignSRL)
			cfg.WarmupUops = 5_000
			cfg.RunUops = 1 << 60
			cfg.IssueWidth = w
			c, err := New(cfg, trace.SINT2K)
			if err != nil {
				b.Fatal(err)
			}
			for c.MeasuredUops() < 20_000 {
				c.StepCycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.StepCycle()
			}
		})
	}
}

// TestSteadyStateZeroAlloc is the allocation budget as a hard test: once a
// core is warm, stepping it must not allocate on the hot path. A small
// budget absorbs the rare amortized growth event (a slice or map passing a
// new high-water mark deep into the run).
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignSRL} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := DefaultConfig(d)
			cfg.WarmupUops = 5_000
			cfg.RunUops = 1 << 60
			c, err := New(cfg, trace.SINT2K)
			if err != nil {
				t.Fatal(err)
			}
			for c.MeasuredUops() < 50_000 {
				c.StepCycle()
			}
			const cycles = 2_000
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < cycles; i++ {
					c.StepCycle()
				}
			})
			// Budget: well under one allocation per hundred cycles.
			if avg > cycles/100 {
				t.Fatalf("steady state allocates %.1f times per %d cycles", avg, cycles)
			}
		})
	}
}
