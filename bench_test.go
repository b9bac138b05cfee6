// Package srlproc's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation section. Each benchmark regenerates
// its artefact at reduced scale and reports the headline quantity as a
// custom metric, so
//
//	go test -bench=. -benchmem
//
// walks the entire evaluation. For publication-scale numbers use
// cmd/experiments (larger run lengths, full text tables).
package srlproc

import (
	"context"
	"testing"

	"srlproc/internal/bench"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// runFigure runs one speedup figure through bench.RunExperiment.
func runFigure(b *testing.B, id bench.ExperimentID, o bench.Options) *bench.FigureResult {
	b.Helper()
	r, err := bench.RunExperiment(context.Background(), id, o)
	if err != nil {
		b.Fatal(err)
	}
	return r.(*bench.FigureResult)
}

func benchOptions() bench.Options {
	return bench.Options{WarmupUops: 5_000, RunUops: 30_000, Seed: 1}
}

// BenchmarkTable1Config renders the machine configuration (Table 1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.RenderTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Suites renders the benchmark suite table (Table 2).
func BenchmarkTable2Suites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.RenderTable2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2StoreQueueSweep regenerates Figure 2 (store queue size
// sweep) serially on a fresh private memo cache each iteration, so every
// iteration times the same cold sweep whatever ran before it. It reports
// the SFP2K speedup of the 1K-entry configuration and how many of the 35
// points simulated: a queue that never filled answers the larger sizes.
func BenchmarkFigure2StoreQueueSweep(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	var simulated uint64
	for i := 0; i < b.N; i++ {
		o.Cache = sweep.NewCache()
		fig := runFigure(b, bench.Fig2, o)
		simulated += o.Cache.Stats().Misses
		last := fig.Series[len(fig.Series)-1]
		b.ReportMetric(last.BySuite[trace.SFP2K], "SFP2K-1K-speedup-%")
	}
	b.ReportMetric(float64(simulated)/float64(b.N), "simulated/op")
}

// BenchmarkFigure6SRLComparison regenerates Figure 6 (SRL vs hierarchical
// vs ideal) and reports the mean SRL speedup across suites.
func BenchmarkFigure6SRLComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := runFigure(b, bench.Fig6, benchOptions())
		sum := 0.0
		for _, v := range fig.Series[0].BySuite {
			sum += v
		}
		b.ReportMetric(sum/float64(len(fig.Series[0].BySuite)), "mean-SRL-speedup-%")
	}
}

// BenchmarkTable3SRLStats regenerates Table 3 and reports SFP2K's redone
// store percentage.
func BenchmarkTable3SRLStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunExperiment(context.Background(), bench.Table3, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.(*bench.Table3Result).Rows[0].RedoneStoresPct, "SFP2K-redone-%")
	}
}

// BenchmarkFigure7Occupancy regenerates the SRL occupancy distribution and
// reports the fraction of SFP2K's occupied time above 256 entries.
func BenchmarkFigure7Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunExperiment(context.Background(), bench.Fig7, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.(*bench.Figure7Result).BySuite[trace.SFP2K][4], "SFP2K->256-%")
	}
}

// BenchmarkFigure8LCFAblation regenerates Figure 8 and reports how much
// removing the LCF costs SFP2K relative to the full SRL.
func BenchmarkFigure8LCFAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := runFigure(b, bench.Fig8, benchOptions())
		full := fig.Series[0].BySuite[trace.SFP2K]
		none := fig.Series[2].BySuite[trace.SFP2K]
		b.ReportMetric(full-none, "SFP2K-LCF-benefit-pp")
	}
}

// BenchmarkFigure9LCFSweep regenerates Figure 9 (LCF size and hash).
func BenchmarkFigure9LCFSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := runFigure(b, bench.Fig9, benchOptions())
		small := fig.Series[3].BySuite[trace.SFP2K] // LCF256 + 3-PAX
		big := fig.Series[4].BySuite[trace.SFP2K]   // LCF2K + 3-PAX
		b.ReportMetric(big-small, "SFP2K-2Kvs256-pp")
	}
}

// BenchmarkFigure10ForwardingDesign regenerates Figure 10 (FC vs data
// cache for temporary updates).
func BenchmarkFigure10ForwardingDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := runFigure(b, bench.Fig10, benchOptions())
		fc := fig.Series[0].BySuite[trace.SFP2K]
		dc := fig.Series[1].BySuite[trace.SFP2K]
		b.ReportMetric(fc-dc, "SFP2K-FC-benefit-pp")
	}
}

// BenchmarkSection62PowerArea evaluates the analytical power/area model.
func BenchmarkSection62PowerArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.RunPowerArea()) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// micro-ops per wall second) of the SRL design on SINT2K.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 0
	cfg.RunUops = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), cfg, SINT2K)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Uops), "uops/op")
	}
}

// BenchmarkSweepMatrix contrasts the sweep engine's execution modes on the
// Figure 6 matrix at QuickOptions scale: fully serial, the bounded worker
// pool, and the pool plus the memoization cache (pre-primed, so iterations
// measure pure cache-hit aggregation). The pooled/serial ratio is the
// worker-pool speedup; pooled+memo shows what recurring configurations
// cost once the process cache is warm.
func BenchmarkSweepMatrix(b *testing.B) {
	modes := []struct {
		name string
		mod  func(*bench.Options)
	}{
		{"serial", func(o *bench.Options) { o.Workers = 1; o.NoCache = true }},
		{"pooled", func(o *bench.Options) { o.Workers = 0; o.NoCache = true }},
		{"pooled+memo", func(o *bench.Options) { o.Workers = 0; o.NoCache = false }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			o := bench.QuickOptions()
			o.Seed = 77 // keep these points disjoint from other tests' cache entries
			m.mod(&o)
			if !o.NoCache {
				// Prime the cache so the memoized mode measures warm hits.
				runFigure(b, bench.Fig6, o)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if fig := runFigure(b, bench.Fig6, o); len(fig.Series) != 3 {
					b.Fatal("unexpected figure shape")
				}
			}
			b.ReportMetric(float64(sweep.Global().Stats().Hits), "cache-hits")
		})
	}
}

// --- ablation benchmarks beyond the paper (DESIGN.md section 6) ---

// BenchmarkLoadBufferOverflowPolicy contrasts the victim-buffer and
// violate-on-overflow policies Section 3 offers.
func BenchmarkLoadBufferOverflowPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vict := DefaultConfig(DesignSRL)
		vict.WarmupUops, vict.RunUops = 5_000, 30_000
		viol := vict
		viol.LoadBufVictim = 0
		viol.LoadBufPolicy = 1 // lsq.OverflowViolate
		rv, err := RunContext(context.Background(), vict, SFP2K)
		if err != nil {
			b.Fatal(err)
		}
		ro, err := RunContext(context.Background(), viol, SFP2K)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rv.SpeedupOver(ro), "victim-benefit-%")
	}
}

// BenchmarkWARDelay measures the cost/benefit of the write-after-read order
// tracker delaying SRL drains (the paper asserts it does not hurt).
func BenchmarkWARDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := DefaultConfig(DesignSRL)
		on.WarmupUops, on.RunUops = 5_000, 30_000
		off := on
		off.UseWARTracker = false
		rOn, err := RunContext(context.Background(), on, SFP2K)
		if err != nil {
			b.Fatal(err)
		}
		rOff, err := RunContext(context.Background(), off, SFP2K)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rOn.SpeedupOver(rOff), "WAR-cost-%")
	}
}
