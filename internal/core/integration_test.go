package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/obs"
	"srlproc/internal/trace"
)

func diffAbs(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func run(t *testing.T, cfg Config, s trace.Suite) *Results {
	t.Helper()
	c, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run()
}

// TestSameInstructionStreamAcrossDesigns: every design must commit the same
// architectural instruction mix for the same workload seed — the designs
// differ in timing, never in what executes.
func TestSameInstructionStreamAcrossDesigns(t *testing.T) {
	var ref *Results
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignHierarchical, DesignSRL} {
		cfg := shortCfg(d)
		cfg.WarmupUops = 0 // identical measurement regions
		res := run(t, cfg, trace.WEB)
		if ref == nil {
			ref = res
			continue
		}
		// Bulk commit is checkpoint-granular, so the measurement boundary
		// can overshoot by up to one checkpoint interval per design; the
		// committed stream itself is identical.
		tol := uint64(cfg.CkptInterval)
		if diffAbs(res.Loads, ref.Loads) > tol || diffAbs(res.Stores, ref.Stores) > tol {
			t.Fatalf("%v committed loads/stores %d/%d, baseline %d/%d",
				d, res.Loads, res.Stores, ref.Loads, ref.Stores)
		}
	}
}

// TestLargerSTQNotSlower: the core Figure 2 direction — growing the store
// queue must not hurt a memory-intensive workload.
func TestLargerSTQNotSlower(t *testing.T) {
	small := shortCfg(DesignBaseline) // 48 entries
	big := shortCfg(DesignLargeSTQ)
	big.STQSize = 1024
	rs := run(t, small, trace.SFP2K)
	rb := run(t, big, trace.SFP2K)
	if rb.SpeedupOver(rs) < 0 {
		t.Fatalf("1K STQ slower than 48-entry: %.1f%%", rb.SpeedupOver(rs))
	}
}

func TestSRLBeatsBaseline(t *testing.T) {
	base := run(t, shortCfg(DesignBaseline), trace.SFP2K)
	srl := run(t, shortCfg(DesignSRL), trace.SFP2K)
	if srl.SpeedupOver(base) <= 0 {
		t.Fatalf("SRL speedup %.1f%% over baseline on SFP2K", srl.SpeedupOver(base))
	}
}

func TestSRLStatisticsSane(t *testing.T) {
	res := run(t, shortCfg(DesignSRL), trace.SFP2K)
	if res.RedoneStores > res.Stores {
		t.Fatalf("redone %d > committed stores %d", res.RedoneStores, res.Stores)
	}
	if p := res.PctTimeSRLOccupied(); p < 0 || p > 100 {
		t.Fatalf("occupancy %.1f%%", p)
	}
	if res.MissDependentStores > res.MissDependentUops {
		t.Fatal("miss-dependent stores exceed miss-dependent uops")
	}
	if res.SRLOccupancy == nil || res.SRLOccupancy.TotalCycles() == 0 {
		t.Fatal("occupancy tracker empty")
	}
}

// TestDrainCausesByName: every uop that first drains to the slice data
// buffer is counted under exactly one cause — a miss root, a poisoned
// store it depends on, or a poisoned source of its class — and Extra,
// ExtraNames and the "extras" JSON object (a map's rendering: non-zero
// classes, keys sorted) answer the per-class counts by name.
func TestDrainCausesByName(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignFilteredSTQ, DesignHierarchical, DesignSRL} {
		res := run(t, shortCfg(d), trace.SFP2K)
		sum := res.Metric(obs.MetricSDBCauseMissRoot) + res.Metric(obs.MetricSDBCauseMemDep)
		var want []string
		extras := map[string]uint64{}
		for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
			name := "sdb_cause_poisoned_src_" + cl.String()
			n := res.PoisonedSrcDrains[cl]
			if got := res.Extra(name); got != n {
				t.Errorf("%s: Extra(%q) = %d, want %d", d, name, got, n)
			}
			if n > 0 {
				want = append(want, name)
				extras[name] = n
			}
			sum += n
		}
		if len(extras) == 0 {
			t.Errorf("%s: no poisoned-source drains: the check is vacuous", d)
		}
		if sum != res.MissDependentUops {
			t.Errorf("%s: drain causes sum to %d, missDependentUops %d", d, sum, res.MissDependentUops)
		}
		for _, m := range res.Metrics.NonZero() {
			want = append(want, m.String())
		}
		sort.Strings(want)
		if got := res.ExtraNames(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ExtraNames() = %v, want %v", d, got, want)
		}

		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var raw struct {
			Extras json.RawMessage `json:"extras"`
		}
		if err := json.Unmarshal(doc, &raw); err != nil {
			t.Fatal(err)
		}
		if m, _ := json.Marshal(extras); !bytes.Equal(raw.Extras, m) {
			t.Errorf("%s: extras renders %s, a map renders %s", d, raw.Extras, m)
		}
		var back Results
		if err := json.Unmarshal(doc, &back); err != nil {
			t.Fatal(err)
		}
		if back.PoisonedSrcDrains != res.PoisonedSrcDrains {
			t.Errorf("%s: extras round-trip to %v, want %v", d, back.PoisonedSrcDrains, res.PoisonedSrcDrains)
		}
		t.Logf("%s: %d miss-dependent uops, poisoned-source drains %v", d, res.MissDependentUops, extras)
	}
	if b, _ := json.Marshal(PoisonedSrcCounts{}); string(b) != "{}" {
		t.Errorf("no drains render %s, want {}", b)
	}
	var cc PoisonedSrcCounts
	if err := json.Unmarshal([]byte(`{"sdb_cause_poisoned_src_class(9)":1}`), &cc); err == nil {
		t.Error("an unknown extra name decoded without error")
	}
}

func TestSnoopsOffMeansNoSnoopViolations(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	cfg.SnoopsEnabled = false
	res := run(t, cfg, trace.SERVER)
	if res.SnoopViolations != 0 {
		t.Fatalf("snoop violations with snoops disabled: %d", res.SnoopViolations)
	}
	if res.Extra("snoops_injected") != 0 {
		t.Fatal("snoops injected while disabled")
	}
}

func TestSnoopsOnServerProduceViolations(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	cfg.RunUops = 60_000
	res := run(t, cfg, trace.SERVER)
	if res.Extra("snoops_injected") == 0 {
		t.Fatal("SERVER suite injected no snoops")
	}
}

// TestAblationsRun exercises every SRL configuration axis end to end.
func TestAblationsRun(t *testing.T) {
	mk := func(mod func(*Config)) Config {
		cfg := shortCfg(DesignSRL)
		mod(&cfg)
		return cfg
	}
	cases := map[string]Config{
		"noLCF":     mk(func(c *Config) { c.UseLCF = false; c.UseIndexedFwd = false }),
		"noIF":      mk(func(c *Config) { c.UseIndexedFwd = false }),
		"noFC":      mk(func(c *Config) { c.UseFC = false }),
		"noWAR":     mk(func(c *Config) { c.UseWARTracker = false }),
		"violate":   mk(func(c *Config) { c.LoadBufPolicy = lsq.OverflowViolate; c.LoadBufVictim = 0 }),
		"smallLCF":  mk(func(c *Config) { c.LCFSize = 256 }),
		"labHash":   mk(func(c *Config) { c.LCFHash = lsq.HashLAB }),
		"loAssocLB": mk(func(c *Config) { c.LoadBufAssoc = 4 }),
	}
	for name, cfg := range cases {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := run(t, cfg, trace.SINT2K)
			if res.Uops < cfg.RunUops {
				t.Fatalf("committed only %d", res.Uops)
			}
		})
	}
}

// TestNoFCVariantDiscardsTemporaryUpdates: the §6.5 configuration must
// exercise the data-cache temporary-update machinery.
func TestNoFCVariantDiscardsTemporaryUpdates(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	cfg.UseFC = false
	res := run(t, cfg, trace.SFP2K)
	if res.SpecDiscards == 0 {
		t.Fatal("no temporary updates were ever discarded in the data-cache variant")
	}
}

// TestTinyResourcesStillProgress stress-tests forward progress with
// minimal structures (deadlock hunting).
func TestTinyResourcesStillProgress(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignHierarchical, DesignSRL} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(d)
			cfg.WarmupUops = 0
			cfg.RunUops = 8_000
			cfg.Checkpoints = 2
			cfg.CkptInterval = 64
			cfg.SchedInt, cfg.SchedFP, cfg.SchedMem = 16, 16, 12
			cfg.IntRegs, cfg.FPRegs = 48, 48
			cfg.L1STQSize = 8
			cfg.STQSize = 8
			cfg.L2STQSize = 64
			cfg.SRLSize = 64
			cfg.LQSize = 64
			cfg.WindowCap = 512
			res := run(t, cfg, trace.SINT2K)
			if res.Uops < cfg.RunUops {
				t.Fatalf("committed %d", res.Uops)
			}
		})
	}
}

func TestSeedsProduceDifferentButValidRuns(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	a := run(t, cfg, trace.MM)
	cfg.Seed = 99
	b := run(t, cfg, trace.MM)
	if a.Cycles == b.Cycles && a.Loads == b.Loads {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.AllocWidth = 0 },
		func(c *Config) { c.Checkpoints = 1 },
		func(c *Config) { c.CkptInterval = 0 },
		func(c *Config) { c.RunUops = 0 },
		func(c *Config) { c.LCFSize = 1000 },
		func(c *Config) { c.UseLCF = false }, // with indexed fwd still on
		func(c *Config) { c.Mem.MSHRs = 0 },
		func(c *Config) { c.Mem.MSHRs = -1 },
		// NaN fails every comparison, so only a check that NaN cannot
		// pass rejects it: a NaN FarFrac made every line far at 0 cycles.
		func(c *Config) { c.AcquireFrac = math.NaN() },
		func(c *Config) { c.ReleaseFrac = math.NaN() },
		func(c *Config) { c.AcquireFrac = -0.1 },
		func(c *Config) { c.ReleaseFrac = 1.5 },
		func(c *Config) { c.Mem.FarFrac = math.NaN() },
		func(c *Config) { c.Mem.FarFrac, c.Mem.FarLatency = math.NaN(), 1600 },
	}
	for i, mod := range bad {
		cfg := DefaultConfig(DesignSRL)
		mod(&cfg)
		if _, err := New(cfg, trace.SINT2K); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestResultsDerivedMetrics(t *testing.T) {
	r := &Results{EventCounts: EventCounts{Cycles: 1000, Uops: 2000, Stores: 100, RedoneStores: 25,
		MissDependentUops: 40, MissDependentStores: 10, SRLLoadStalls: 4, Loads: 500}}
	if r.IPC() != 2.0 {
		t.Fatalf("IPC %v", r.IPC())
	}
	if r.PctRedoneStores() != 25 {
		t.Fatalf("redone %v", r.PctRedoneStores())
	}
	if r.PctMissDependentUops() != 2 {
		t.Fatalf("missdep uops %v", r.PctMissDependentUops())
	}
	if r.PctMissDependentStores() != 10 {
		t.Fatalf("missdep stores %v", r.PctMissDependentStores())
	}
	if r.SRLStallsPer10K() != 20 {
		t.Fatalf("stalls %v", r.SRLStallsPer10K())
	}
	base := &Results{EventCounts: EventCounts{Cycles: 2000}}
	if r.SpeedupOver(base) != 100 {
		t.Fatalf("speedup %v", r.SpeedupOver(base))
	}
}

// TestFinalizedResultsDoNotPinCore: a kept *Results must not keep its
// core's window, caches and queues reachable. Those run to megabytes,
// while the sweep cache budgets about 4 KiB per result.
func TestFinalizedResultsDoNotPinCore(t *testing.T) {
	const n = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]*Results, 0, n)
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(DesignSRL)
		cfg.WarmupUops, cfg.RunUops, cfg.Seed = 1000, 8000, uint64(i+1)
		c, err := New(cfg, trace.SFP2K)
		if err != nil {
			t.Fatal(err)
		}
		if r := c.Run(); r != c.Finalize() {
			t.Fatal("Finalize returned a different document than Run")
		}
		kept = append(kept, c.Finalize())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(kept)
	if per > 64<<10 {
		t.Fatalf("each kept result retains %d KiB, want under 64 KiB", per>>10)
	}
}

// TestViolationMachineryFires: memory dependence violations must occur and
// be recovered from (the workload embeds true store->load dependences that
// the predictor can initially miss).
func TestViolationMachineryFires(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	cfg.RunUops = 60_000
	res := run(t, cfg, trace.SFP2K)
	if res.MemDepViolations == 0 && res.Restarts == res.BranchMispredicts+res.SnoopViolations {
		t.Log("no memory dependence violations observed (predictor perfect on this seed)")
	}
	if res.Restarts == 0 {
		t.Fatal("no restarts at all — recovery machinery untested")
	}
	if res.BranchMispredicts == 0 {
		t.Fatal("no branch mispredicts — CPR recovery untested")
	}
}

// TestForwardingHappens: the paper reports 20-35% of loads forward from
// stores; the simulator's combined forwarding paths should be in that
// ballpark.
func TestForwardingHappens(t *testing.T) {
	res := run(t, shortCfg(DesignSRL), trace.PROD)
	fwd := res.L1STQForwards + res.FCForwards + res.IndexedForwards
	frac := float64(fwd) / float64(res.Loads)
	if frac < 0.10 || frac > 0.60 {
		t.Fatalf("forwarding fraction %.2f outside plausible range", frac)
	}
}

// --- filtered store queue design (related-work comparator) ---

func TestFilteredSTQRuns(t *testing.T) {
	cfg := shortCfg(DesignFilteredSTQ)
	cfg.STQSize = 1024
	res := run(t, cfg, trace.SFP2K)
	if res.Uops < cfg.RunUops {
		t.Fatalf("committed %d", res.Uops)
	}
	if res.RedoneStores != 0 {
		t.Fatal("filtered design has no redo machinery")
	}
	if res.Extra("filtered_searches_saved") == 0 {
		t.Fatal("the membership filter never saved a search")
	}
}

func TestFilteredSTQSavesSearches(t *testing.T) {
	mk := func(d StoreDesign) *Results {
		cfg := shortCfg(d)
		cfg.STQSize = 1024
		return run(t, cfg, trace.PROD)
	}
	plain := mk(DesignLargeSTQ)
	filt := mk(DesignFilteredSTQ)
	if filt.CamEntryOps >= plain.CamEntryOps {
		t.Fatalf("filter saved nothing: %d vs %d comparator activations",
			filt.CamEntryOps, plain.CamEntryOps)
	}
}
