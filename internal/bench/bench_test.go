package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// tinyOptions keep unit tests fast; experiment correctness (not statistics)
// is under test here.
func tinyOptions() Options {
	return Options{WarmupUops: 2_000, RunUops: 10_000, Seed: 1}
}

func TestRenderTables(t *testing.T) {
	t1 := RenderTable1()
	for _, want := range []string{"8 GHz", "gshare-perceptron", "Store buffer size", "1 MB"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := RenderTable2()
	for _, want := range []string{"SFP2K", "TPC-C", "CAD, rendering", "13"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestRunFigure2Structure(t *testing.T) {
	r, err := RunExperiment(context.Background(), Fig2, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig := r.(*FigureResult)
	if len(fig.Series) != len(Figure2Sizes) {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.BySuite) != len(trace.AllSuites()) {
			t.Fatalf("series %s covers %d suites", s.Label, len(s.BySuite))
		}
	}
	if !strings.Contains(fig.String(), "512-entry STQ") {
		t.Fatal("figure render missing series label")
	}
}

func TestRunFigure6Structure(t *testing.T) {
	r, err := RunExperiment(context.Background(), Fig6, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig := r.(*FigureResult)
	labels := map[string]bool{}
	for _, s := range fig.Series {
		labels[s.Label] = true
	}
	for _, want := range []string{"SRL", "Hierarchical STQ", "Ideal STQ"} {
		if !labels[want] {
			t.Fatalf("missing series %q", want)
		}
	}
	// Raw results available for every (label, suite) pair.
	if fig.Raw["SRL"][trace.SFP2K] == nil {
		t.Fatal("raw results missing")
	}
}

func TestRunTable3Structure(t *testing.T) {
	r, err := RunExperiment(context.Background(), Table3, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.(*Table3Result)
	if len(tbl.Rows) != len(trace.AllSuites()) {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.PctTimeSRLOccupied < 0 || r.PctTimeSRLOccupied > 100 {
			t.Fatalf("%v occupancy %v", r.Suite, r.PctTimeSRLOccupied)
		}
	}
	if !strings.Contains(tbl.String(), "Redone Stores") {
		t.Fatal("table render incomplete")
	}
}

func TestRunFigure7Structure(t *testing.T) {
	r, err := RunExperiment(context.Background(), Fig7, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig := r.(*Figure7Result)
	for _, su := range trace.AllSuites() {
		vals := fig.BySuite[su]
		if len(vals) != len(fig.Thresholds) {
			t.Fatalf("%v has %d points", su, len(vals))
		}
		// The distribution is a survival curve: non-increasing in the
		// threshold.
		for i := 1; i < len(vals); i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Fatalf("%v distribution not monotone: %v", su, vals)
			}
		}
	}
}

func TestRunPowerAreaMentionsReductions(t *testing.T) {
	s := RunPowerArea()
	for _, want := range []string{"Hierarchical L2 STQ", "SRL + LCF + FC", "area reduction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("power report missing %q:\n%s", want, s)
		}
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 5_000
	o.NoCache = true // compare two real runs, not a run and its memo
	par, err := RunExperiment(context.Background(), Table3, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 1
	seq, err := RunExperiment(context.Background(), Table3, o)
	if err != nil {
		t.Fatal(err)
	}
	parRows, seqRows := par.(*Table3Result).Rows, seq.(*Table3Result).Rows
	for i := range parRows {
		if parRows[i] != seqRows[i] {
			t.Fatalf("parallel/sequential divergence: %+v vs %+v", parRows[i], seqRows[i])
		}
	}
}

// TestWorkersCountsMatch asserts the new Workers knob yields identical
// figures regardless of pool size (the deterministic-aggregation claim).
func TestWorkersCountsMatch(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 5_000
	o.NoCache = true
	var rendered []string
	for _, w := range []int{1, 4} {
		o.Workers = w
		fig, err := RunExperiment(context.Background(), Fig10, o)
		if err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, fig.String())
	}
	if rendered[0] != rendered[1] {
		t.Fatalf("figure depends on worker count:\n%s\nvs\n%s", rendered[0], rendered[1])
	}
}

// TestMemoizationAcrossFigures is the acceptance check: a Figure 2 +
// Figure 6 pass sharing the process cache must simulate strictly fewer
// points than the two figures contain (the baseline recurs, and Figure 2's
// 1K-entry STQ is Figure 6's ideal STQ).
func TestMemoizationAcrossFigures(t *testing.T) {
	o := tinyOptions()
	o.Seed = 4242 // unique to this test so the global cache starts cold for it
	hits0, misses0 := sweep.Global().Hits(), sweep.Global().Misses()
	fig2, err := RunExperiment(context.Background(), Fig2, o)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := RunExperiment(context.Background(), Fig6, o)
	if err != nil {
		t.Fatal(err)
	}
	suites := len(trace.AllSuites())
	totalPoints := (len(fig2.(*FigureResult).Series)+1)*suites + (len(fig6.(*FigureResult).Series)+1)*suites
	simulated := int(sweep.Global().Misses() - misses0)
	hits := int(sweep.Global().Hits() - hits0)
	if simulated+hits != totalPoints {
		t.Fatalf("cache accounting: %d simulated + %d hits != %d points", simulated, hits, totalPoints)
	}
	if simulated >= totalPoints {
		t.Fatalf("memoization saved nothing: %d simulations for %d points", simulated, totalPoints)
	}
	// Figure 6 shares the baseline and the 1K-entry LargeSTQ config with
	// Figure 2: two full suite rows of hits.
	if hits < 2*suites {
		t.Fatalf("expected >= %d cache hits, got %d", 2*suites, hits)
	}
}

// TestCancelledContextSurfaces asserts a cancelled experiment reports
// ctx.Err() through the joined error.
func TestCancelledContextSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, Fig6, tinyOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled figure error = %v", err)
	}
	if _, err := RunExperiment(ctx, Latency, tinyOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency sweep error = %v", err)
	}
}

// TestProgressReported asserts the Options.Progress hook sees every point.
func TestProgressReported(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 5_000
	o.NoCache = true
	var calls int
	var last sweep.Progress
	o.Workers = 1 // serialise so the plain counters below are race-free
	o.Progress = func(p sweep.Progress) {
		calls++
		last = p
	}
	if _, err := RunExperiment(context.Background(), Table3, o); err != nil {
		t.Fatal(err)
	}
	if want := len(trace.AllSuites()); calls != want || last.Done != want || last.Total != want {
		t.Fatalf("progress calls=%d lastDone=%d lastTotal=%d want %d", calls, last.Done, last.Total, want)
	}
}

func TestRunEnergyStructure(t *testing.T) {
	r, err := RunExperiment(context.Background(), Energy, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := r.(*EnergyResult)
	if len(res.Rows) != 3*len(trace.AllSuites()) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The SRL's secondary-structure energy must undercut the hierarchical
	// design's on every suite — the paper's central power claim.
	byKey := map[string]float64{}
	for _, r := range res.Rows {
		byKey[r.Design.String()+"/"+r.Suite.String()] = r.NJPer1KUops
	}
	for _, su := range trace.AllSuites() {
		srl := byKey["SRL/"+su.String()]
		hier := byKey["hierarchical-STQ/"+su.String()]
		if srl >= hier {
			t.Fatalf("%v: SRL energy %.1f >= hierarchical %.1f nJ/1k uops", su, srl, hier)
		}
	}
	if !strings.Contains(res.String(), "CAM share") {
		t.Fatal("render incomplete")
	}
}

func TestRunLatencySweepShape(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 30_000
	r, err := RunExperiment(context.Background(), Latency, o)
	if err != nil {
		t.Fatal(err)
	}
	res := r.(*LatencyResult)
	if len(res.Points) != 3*len(LatencySweepLatencies) {
		t.Fatalf("%d points", len(res.Points))
	}
	// Each design's IPC must be non-increasing in memory latency, and the
	// baseline must degrade at least as much as the SRL from first to last
	// point (the latency tolerance claim).
	ipc := map[string]map[uint64]float64{}
	for _, p := range res.Points {
		d := p.Design.String()
		if ipc[d] == nil {
			ipc[d] = map[uint64]float64{}
		}
		ipc[d][p.MemLatency] = p.IPC
	}
	for d, m := range ipc {
		if m[LatencySweepLatencies[0]] < m[LatencySweepLatencies[len(LatencySweepLatencies)-1]] {
			t.Fatalf("%s: IPC grew with memory latency", d)
		}
	}
	// Cross-design comparisons need statistically meaningful run lengths;
	// they are asserted in the core integration tests and shown at full
	// scale by cmd/experiments. Here only the structural properties above
	// are checked.
	if res.String() == "" {
		t.Fatal("empty render")
	}
}
