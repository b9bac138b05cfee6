package srlproc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"srlproc/internal/sweep"
)

// TestPublicAPIRoundTrip drives the library exactly as the README shows.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 2_000
	cfg.RunUops = 15_000
	res, err := RunContext(context.Background(), cfg, SINT2K)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Fatal("non-positive IPC")
	}
	if res.Suite != SINT2K || res.Design != DesignSRL {
		t.Fatal("result identity wrong")
	}
}

func TestAllSuitesExported(t *testing.T) {
	if len(AllSuites()) != 7 {
		t.Fatalf("%d suites exported", len(AllSuites()))
	}
}

func TestAllDesignsRunnable(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignHierarchical, DesignSRL} {
		cfg := DefaultConfig(d)
		cfg.WarmupUops = 1_000
		cfg.RunUops = 8_000
		if _, err := RunContext(context.Background(), cfg, PROD); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.RunUops = 0
	if _, err := RunContext(context.Background(), cfg, WS); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(RenderTable1(), "checkpoints") &&
		!strings.Contains(RenderTable1(), "checkpoint") &&
		!strings.Contains(RenderTable1(), "Map table") {
		t.Fatal("Table 1 incomplete")
	}
	if !strings.Contains(RenderTable2(), "SERVER") {
		t.Fatal("Table 2 incomplete")
	}
	if !strings.Contains(RunPowerArea(), "reduction") {
		t.Fatal("power report incomplete")
	}
}

func TestExperimentRunnersWired(t *testing.T) {
	o := QuickOptions()
	o.WarmupUops, o.RunUops = 1_000, 6_000
	res, err := RunExperiment(context.Background(), Fig10, o)
	if err != nil {
		t.Fatal(err)
	}
	if fig := res.(*FigureResult); len(fig.Series) != 2 {
		t.Fatalf("figure 10 has %d series", len(fig.Series))
	}
}

func TestRunContextCompletes(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 1_000
	cfg.RunUops = 8_000
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := RunContext(ctx, cfg, WEB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops < cfg.RunUops {
		t.Fatalf("short run: %d uops", res.Uops)
	}
}

func TestRunContextCancelled(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 0
	cfg.RunUops = 50_000_000
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := RunContext(ctx, cfg, WEB); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not surfaced: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestRunFromSourceContext(t *testing.T) {
	cfg := DefaultConfig(DesignBaseline)
	cfg.WarmupUops = 500
	cfg.RunUops = 4_000
	src := NewSyntheticSource(MM, 7)
	res, err := RunFromSourceContext(context.Background(), cfg, src, MM)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite != MM {
		t.Fatalf("suite label %v", res.Suite)
	}
}

func TestContextExperimentRunnersWired(t *testing.T) {
	o := QuickOptions()
	o.WarmupUops, o.RunUops = 1_000, 6_000
	o.Workers = 2
	var points atomic.Int64
	o.Progress = func(p Progress) { points.Store(int64(p.Done)) }
	res, err := RunExperiment(context.Background(), Fig10, o)
	if err != nil {
		t.Fatal(err)
	}
	if fig := res.(*FigureResult); len(fig.Series) != 2 {
		t.Fatalf("figure 10 has %d series", len(fig.Series))
	}
	if points.Load() == 0 {
		t.Fatal("progress callback never fired")
	}
	// A cancelled context aborts and surfaces ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, Table3, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled experiment error = %v", err)
	}
}

// ExampleRunContext demonstrates the minimal simulation flow (also serves
// as the godoc example for the package entry point).
func ExampleRunContext() {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 1_000
	cfg.RunUops = 5_000
	res, err := RunContext(context.Background(), cfg, PROD)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Design, "on", res.Suite, "committed", res.Uops >= 5_000)
	// Output: SRL on PROD committed true
}

// TestSweepCacheFacade exercises the memo-cache control surface: the
// budget applies and is reported in stats, sweeps populate the cache
// within that budget, and Reset zeroes everything.
func TestSweepCacheFacade(t *testing.T) {
	defer func() {
		SetSweepCacheBudget(sweep.DefaultCacheEntries, sweep.DefaultCacheBytes)
		ResetSweepCache()
	}()
	ResetSweepCache()
	SetSweepCacheBudget(2, 1<<20)
	st := SweepCacheStats()
	if st.MaxEntries != 2 || st.MaxBytes != 1<<20 {
		t.Fatalf("budget not applied: %+v", st)
	}
	o := QuickOptions()
	o.RunUops, o.WarmupUops = 2_000, 500
	if _, err := RunExperiment(context.Background(), Table3, o); err != nil {
		t.Fatal(err)
	}
	st = SweepCacheStats()
	if st.Entries == 0 || st.Entries > 2 {
		t.Fatalf("entries outside budget: %+v", st)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("7-point sweep under a 2-entry budget should miss and evict: %+v", st)
	}
	ResetSweepCache()
	st = SweepCacheStats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
}

// TestUnifiedExperimentRunner drives RunExperiment through the facade:
// name parsing, the typed result, and a facade constant for every
// experiment.
func TestUnifiedExperimentRunner(t *testing.T) {
	id, err := ParseExperimentID("figure10")
	if err != nil || id != Fig10 {
		t.Fatalf("ParseExperimentID: %v %v", id, err)
	}
	o := QuickOptions()
	o.WarmupUops, o.RunUops = 1_000, 6_000
	res, err := RunExperiment(context.Background(), id, o)
	if err != nil {
		t.Fatal(err)
	}
	if fig, ok := res.(*FigureResult); !ok || len(fig.Series) != 2 {
		t.Fatalf("typed result wrong: %+v", res)
	}
	// Every experiment has a facade constant: a new experiment that misses
	// one fails here.
	facade := map[string]ExperimentID{
		"fig2": Fig2, "fig6": Fig6, "table3": Table3, "fig7": Fig7, "fig8": Fig8,
		"fig9": Fig9, "fig10": Fig10, "energy": Energy, "latency": Latency, "ordering": Ordering,
	}
	if len(facade) != len(AllExperiments()) {
		t.Fatalf("facade names %d experiments, AllExperiments lists %d", len(facade), len(AllExperiments()))
	}
	for name, id := range facade {
		if got, err := ParseExperimentID(name); err != nil || got != id {
			t.Errorf("%s: facade constant %v, ParseExperimentID gives %v, %v", name, id, got, err)
		}
	}
}

// TestResultStoreFacadeWarmRestart is the library-level warm-restart
// round trip: attach a disk store, run an experiment, simulate a process
// restart (fresh memo cache, re-attached store), and require the repeat
// run to be served entirely from durable state with byte-identical output.
func TestResultStoreFacadeWarmRestart(t *testing.T) {
	dir := t.TempDir()
	defer func() {
		FlushResultStore()
		sweep.Global().AttachStore(nil)
		ResetSweepCache()
	}()
	ResetSweepCache()
	if err := AttachResultStore(dir); err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.WarmupUops, o.RunUops = 500, 2_500
	r1, err := RunExperiment(context.Background(), Fig10, o)
	if err != nil {
		t.Fatal(err)
	}
	FlushResultStore()
	st, ok := SweepStoreStats()
	if !ok || st.Puts == 0 {
		t.Fatalf("store stats after cold run: ok=%v %+v", ok, st)
	}

	ResetSweepCache() // drop the memo tier: what a process restart does
	if err := AttachResultStore(dir); err != nil {
		t.Fatal(err)
	}
	r2, err := RunExperiment(context.Background(), Fig10, o)
	if err != nil {
		t.Fatal(err)
	}
	if cs := SweepCacheStats(); cs.Misses != 0 || cs.StoreHits == 0 {
		t.Fatalf("warm run simulated fresh points: %+v", cs)
	}
	d1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatal("warm-restart experiment output is not byte-identical")
	}
}
