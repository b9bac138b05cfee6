package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"srlproc/internal/cachesim"
	"srlproc/internal/isa"
	"srlproc/internal/obs"
	"srlproc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_points.json")

// runSkipVariant runs cfg/suite with EventSkip forced to the given value
// and returns the marshaled Results document. Identity tests must build
// cores directly (New + RunContext): EventSkip is normalized out of the
// fingerprint, so going through the sweep/memo layers would hand both
// variants the same cached result and prove nothing.
func runSkipVariant(t testing.TB, cfg Config, suite trace.Suite, skip bool) (*Results, []byte) {
	t.Helper()
	cfg.EventSkip = skip
	c, err := New(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// skipIdentityPoints is the design-point matrix the skip-identity and
// golden tests share: every store organisation (plus the no-LCF SRL
// ablation, SRL with sync knobs with and without the WAR tracker, the
// latter so the release gate does real work, and baseline and SRL at
// 8000-cycle memory with the prefetcher off, where loads wait for a free
// MSHR through long skipped gaps) crossed with three workload suites — 30
// points.
func skipIdentityPoints() []struct {
	Name  string
	Cfg   Config
	Suite trace.Suite
} {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", shortCfg(DesignBaseline)},
		{"stq1024", func() Config {
			c := shortCfg(DesignLargeSTQ)
			c.STQSize = 1024
			return c
		}()},
		{"hier", shortCfg(DesignHierarchical)},
		{"srl", shortCfg(DesignSRL)},
		{"filtered", shortCfg(DesignFilteredSTQ)},
		{"srl-nolcf", func() Config {
			c := shortCfg(DesignSRL)
			c.UseLCF = false
			c.UseIndexedFwd = false
			return c
		}()},
		{"srl-sync", withSyncKnobs(shortCfg(DesignSRL))},
		{"srl-sync-nowar", func() Config {
			c := withSyncKnobs(shortCfg(DesignSRL))
			c.UseWARTracker = false
			return c
		}()},
		{"baseline-deep", deepCfg(DesignBaseline)},
		{"srl-deep", deepCfg(DesignSRL)},
	}
	suites := []trace.Suite{trace.SFP2K, trace.SINT2K, trace.WEB}
	var pts []struct {
		Name  string
		Cfg   Config
		Suite trace.Suite
	}
	for _, cc := range configs {
		for _, su := range suites {
			pts = append(pts, struct {
				Name  string
				Cfg   Config
				Suite trace.Suite
			}{fmt.Sprintf("%s/%s", cc.name, su), cc.cfg, su})
		}
	}
	return pts
}

// TestSkipIdentityGoldenPoints is the bit-for-bit gate for event-driven
// cycle skipping: every golden design point must produce a byte-identical
// Results document with EventSkip on and off, and both must match the
// checked-in golden (regenerate with `go test ./internal/core -update`).
func TestSkipIdentityGoldenPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "golden_points.json")
	golden := map[string]json.RawMessage{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run go test ./internal/core -update): %v", err)
		}
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatal(err)
		}
	}
	fresh := map[string]json.RawMessage{}
	for _, pt := range skipIdentityPoints() {
		pt := pt
		t.Run(pt.Name, func(t *testing.T) {
			_, skipped := runSkipVariant(t, pt.Cfg, pt.Suite, true)
			_, stepped := runSkipVariant(t, pt.Cfg, pt.Suite, false)
			if string(skipped) != string(stepped) {
				t.Fatalf("EventSkip changed the Results document\n--- skip ---\n%s\n--- step ---\n%s", skipped, stepped)
			}
			fresh[pt.Name] = skipped
			if !*updateGolden {
				want, ok := golden[pt.Name]
				if !ok {
					t.Fatalf("point %s missing from %s (run -update)", pt.Name, goldenPath)
				}
				// The golden file stores each document re-indented;
				// compare compacted forms.
				var wantC bytes.Buffer
				if err := json.Compact(&wantC, want); err != nil {
					t.Fatal(err)
				}
				if wantC.String() != string(skipped) {
					t.Fatalf("drifted from golden\n--- got ---\n%s\n--- want ---\n%s", skipped, wantC.String())
				}
			}
		})
	}
	if *updateGolden && !t.Failed() {
		b, err := json.MarshalIndent(fresh, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d points)", goldenPath, len(fresh))
	}
}

// TestSkipIdentityObserved pins the stronger satellite guarantee: with the
// timeline sampler and event trace enabled, the full obs.MetricSet and
// every timeline sample — not just the top-level Results counters — are
// identical with skipping on and off. The sampler's nextSample is a
// first-class wake event, so observation changes skip decisions' timing
// but never their outcomes.
func TestSkipIdentityObserved(t *testing.T) {
	for _, d := range []StoreDesign{DesignSRL, DesignHierarchical, DesignBaseline} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := shortCfg(d)
			cfg.Obs = obs.DefaultConfig()
			cfg.Obs.SampleEvery = 512
			skipRes, skipJSON := runSkipVariant(t, cfg, trace.SFP2K, true)
			stepRes, stepJSON := runSkipVariant(t, cfg, trace.SFP2K, false)

			if skipRes.Metrics != stepRes.Metrics {
				t.Errorf("MetricSet differs:\n--- skip ---\n%s\n--- step ---\n%s",
					skipRes.Metrics.String(), stepRes.Metrics.String())
			}
			ss, ts := skipRes.Timeline.Samples(), stepRes.Timeline.Samples()
			if len(ss) != len(ts) {
				t.Fatalf("timeline length differs: %d vs %d samples", len(ss), len(ts))
			}
			for i := range ss {
				if ss[i] != ts[i] {
					t.Fatalf("timeline sample %d differs:\nskip: %+v\nstep: %+v", i, ss[i], ts[i])
				}
			}
			if string(skipJSON) != string(stepJSON) {
				t.Fatal("observed Results document differs between skip and step")
			}
		})
	}
}

// skipLoop runs cfg/suite with event skipping, one real step and one skip
// decision per loop iteration as RunContext takes them, and returns the
// cycles simulated, the iterations it took and the jumps that replayed
// prefetcher trainings. A replay stamps the trained slots with the skipped
// cycles, so a jump replayed trainings exactly when it moved the stream
// table.
func skipLoop(t *testing.T, cfg Config, suite trace.Suite) (cycles, iters, replays uint64) {
	t.Helper()
	cfg.EventSkip = true
	c, err := New(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		c.StepCycle()
		if c.skip.armed {
			cycle, table := c.cycle, c.mem.StreamTable()
			c.maybeSkip()
			if c.cycle != cycle && !slices.Equal(table, c.mem.StreamTable()) {
				replays++
			}
		} else {
			c.maybeSkip()
		}
		iters++
	}
	c.Finalize()
	return c.cycle, iters, replays
}

// TestSkipActuallySkips proves the fast path engages: every store design
// spends stretches in miss shadows with the whole machine quiescent, so
// the loop must skip a real share of the cycles it simulates. Each floor
// is half the share these points measure (71.5%, 71.5%, 38.5%, 41.9%): a
// compared field that changed every cycle would veto nearly every probe,
// and since results stay identical, only wall time would show it
// otherwise. An engine that vetoed a probe that trained the prefetcher
// stepped through every MSHR wait and skipped 51.0%, 51.0%, 10.4% and 9.3%,
// below the hierarchical and SRL floors.
func TestSkipActuallySkips(t *testing.T) {
	for _, tc := range []struct {
		d        StoreDesign
		minShare float64 // percent of cycles skipped
	}{
		{DesignBaseline, 71.5 / 2},
		{DesignLargeSTQ, 71.5 / 2},
		{DesignHierarchical, 38.5 / 2},
		{DesignSRL, 41.9 / 2},
	} {
		tc := tc
		t.Run(tc.d.String(), func(t *testing.T) {
			cycles, iters, _ := skipLoop(t, shortCfg(tc.d), trace.SFP2K)
			share := 100 * float64(cycles-iters) / float64(cycles)
			t.Logf("%d cycles in %d iterations (%.1f%% skipped)", cycles, iters, share)
			if share < tc.minShare {
				t.Fatalf("skipped %.1f%% of cycles, want at least %.1f%%", share, tc.minShare)
			}
		})
	}
}

// TestSkipMSHRWaits proves the skip engine crosses MSHR waits. At
// 8000-cycle memory with the prefetcher off, an SRL core spends a large
// share of its stepped cycles with a load (or a committed store's drain)
// retrying a full MSHR file. Each retry bumps only read-block counters —
// store-queue searches, LCF probes, FC lookups, L1 and L2 misses — which
// the jump extrapolates. An engine that vetoed on them stepped through
// every such wait and needed 269,167 iterations for this point; with them
// extrapolated it needs 165,547. The bound sits between the two.
func TestSkipMSHRWaits(t *testing.T) {
	cycles, iters, _ := skipLoop(t, deepCfg(DesignSRL), trace.SFP2K)
	t.Logf("%d cycles in %d iterations", cycles, iters)
	if iters >= 217_000 {
		t.Fatalf("%d iterations, want fewer than 217,000", iters)
	}
}

// TestSkipReplayGoldenPoints counts the golden points whose skip runs
// cross MSHR waits by replaying the prefetcher's trainings: 18 of the 30
// do. The six deep points run with the prefetcher off and must replay
// nothing.
func TestSkipReplayGoldenPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	engaged := 0
	for _, pt := range skipIdentityPoints() {
		_, _, replays := skipLoop(t, pt.Cfg, pt.Suite)
		if replays > 0 {
			engaged++
		}
		if replays > 0 && !pt.Cfg.Mem.PrefetchOn {
			t.Errorf("%s replayed %d times with the prefetcher off", pt.Name, replays)
		}
		t.Logf("%s: %d replaying jumps", pt.Name, replays)
	}
	if engaged < 15 {
		t.Fatalf("%d golden points replay prefetcher trainings, want at least 15", engaged)
	}
}

// TestSkipLockstepMatchesStep runs a skipping and a stepping core side by
// side on Table 1 baseline and SRL (800-cycle memory, prefetcher on). At
// every cycle the skipping core lands on, the stepping core at that cycle
// must have the same skip fingerprint and the same stream table: a jump
// that replayed the prefetcher's trainings left the table as stepping the
// gap did. The fingerprint's pendingSnoopFire is the one scalar that may
// differ: a jump that drew a snoop for its next cycle sets it, and the
// stepping core draws that coin inside the cycle.
func TestSkipLockstepMatchesStep(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignSRL} {
		t.Run(d.String(), func(t *testing.T) {
			skipCfg, stepCfg := shortCfg(d), shortCfg(d)
			skipCfg.EventSkip, stepCfg.EventSkip = true, false
			sk, err := New(skipCfg, trace.SFP2K)
			if err != nil {
				t.Fatal(err)
			}
			st, err := New(stepCfg, trace.SFP2K)
			if err != nil {
				t.Fatal(err)
			}
			var jumps, replays uint64
			for !sk.Done() {
				sk.StepCycle()
				cycle, table := sk.cycle, sk.mem.StreamTable()
				sk.maybeSkip()
				if sk.cycle != cycle {
					jumps++
					if !slices.Equal(table, sk.mem.StreamTable()) {
						replays++
					}
				}
				for st.cycle < sk.cycle {
					st.StepCycle()
				}
				fp := sk.skipFPCapture()
				fp.state.pendingSnoopFire = false
				if fp != st.skipFPCapture() {
					t.Fatalf("cycle %d: skip fingerprint %+v, step %+v", sk.cycle, fp, st.skipFPCapture())
				}
				if got, want := sk.mem.StreamTable(), st.mem.StreamTable(); !slices.Equal(got, want) {
					t.Fatalf("cycle %d: skip stream table %+v, step %+v", sk.cycle, got, want)
				}
			}
			t.Logf("%d cycles, %d jumps, %d of them replaying trainings", sk.cycle, jumps, replays)
			if replays == 0 {
				t.Fatal("no jump replayed a training")
			}
		})
	}
}

// busyMSHRs has h take n MSHRs with demand misses to lines 1 MB apart at
// cycle 0, and returns the last line missed, whose stream each of the
// next line's misses extends.
func busyMSHRs(h *cachesim.Hierarchy, n int) uint64 {
	var la uint64
	for i := 1; i <= n; i++ {
		la = uint64(i) << 20
		if h.Access(0, la, false).MSHRFull {
			panic("busyMSHRs: an MSHR refused with one free")
		}
	}
	return la
}

// TestSkipVetoesPrefetchTakingMSHR: a probe whose training sends a
// prefetch that takes an MSHR moves the memory-fetch counter and vetoes,
// even though its own demand miss then finds every MSHR busy. With every
// MSHR already busy the same probe only trains and verifies.
func TestSkipVetoesPrefetchTakingMSHR(t *testing.T) {
	for _, free := range []int{1, 0} {
		c, err := New(shortCfg(DesignSRL), trace.SFP2K)
		if err != nil {
			t.Fatal(err)
		}
		la := busyMSHRs(c.mem, c.cfg.Mem.MSHRs-free)
		c.skip.snap = c.skipCapture()
		if !c.mem.Access(c.cycle, la+64, false).MSHRFull {
			t.Fatalf("%d free MSHRs: the probe's demand miss was admitted", free)
		}
		if verified := c.verifySkip(); verified != (free == 0) {
			t.Errorf("%d free MSHRs: probe verified = %v", free, verified)
		}
	}
}

// TestCoreSizeClass keeps Core inside Go's 4,096-byte size class: a sweep
// builds one core per design point, and the next class up is 4,864 bytes.
// Core is 3,936 bytes on 64-bit hosts: the cycle loop counts its metrics,
// the SRL occupancy and the drain causes straight into Core.res.
func TestCoreSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Core{}); n > 4096 {
		t.Fatalf("Core is %d bytes, past the 4,096-byte size class", n)
	}
}

// TestUopSizes pins the per-uop records at their unpadded sizes: isa.Uop
// at 40 bytes (its words first), which puts a pooled dynUop in Go's
// 160-byte size class; at 56 bytes it took the 176-byte class.
func TestUopSizes(t *testing.T) {
	if n := unsafe.Sizeof(isa.Uop{}); n != 40 {
		t.Errorf("isa.Uop is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(dynUop{}); n != 160 {
		t.Errorf("dynUop is %d bytes, want 160", n)
	}
}

// TestNewAllocs bounds what building a core allocates, for every design
// at Table 1 defaults. Each set-associative table (L1, L2, the FC and the
// load buffer) is one array and the perceptron's rows are one, so a core
// takes about 70 allocations; one slice per set or row took about 2,500.
func TestNewAllocs(t *testing.T) {
	for _, d := range allDesigns {
		cfg := DefaultConfig(d)
		n := testing.AllocsPerRun(5, func() {
			if _, err := New(cfg, trace.SFP2K); err != nil {
				t.Fatal(err)
			}
		})
		if n > 80 {
			t.Errorf("%s: New made %.0f allocations, want at most 80", d, n)
		}
		t.Logf("%s: %.0f allocations", d, n)
	}
}

// TestNewBytes bounds the bytes building a core allocates, for every
// design at Table 1 defaults, at 5% above what each took when a cache line
// became 16 bytes and gshare's counters four to a byte. The L2's 16,384
// lines are the largest single array (256 KiB; 512 KiB at 32 bytes a line).
func TestNewBytes(t *testing.T) {
	measured := map[StoreDesign]uint64{
		DesignBaseline:     589_632,
		DesignLargeSTQ:     589_633,
		DesignHierarchical: 641_025,
		DesignSRL:          658_305,
		DesignFilteredSTQ:  591_729,
	}
	for _, d := range allDesigns {
		cfg := DefaultConfig(d)
		const n = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := New(cfg, trace.SFP2K); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		b := (after.TotalAlloc - before.TotalAlloc) / n
		if limit := measured[d] * 105 / 100; b > limit {
			t.Errorf("%s: New allocated %d bytes, want at most %d", d, b, limit)
		}
		t.Logf("%s: %d bytes", d, b)
	}
}

// TestSkipDeterminism: two skip-enabled runs of the same point must be
// byte-identical (the skip engine holds no hidden nondeterminism).
func TestSkipDeterminism(t *testing.T) {
	cfg := shortCfg(DesignSRL)
	_, a := runSkipVariant(t, cfg, trace.SFP2K, true)
	_, b := runSkipVariant(t, cfg, trace.SFP2K, true)
	if string(a) != string(b) {
		t.Fatal("skip-enabled run is not deterministic")
	}
}

// TestRunContextCancelledMidSkip: cancellation latency must stay
// wall-clock bounded when single loop iterations cover thousands of
// simulated cycles — the ctx poll counts iterations, not cycles.
func TestRunContextCancelledMidSkip(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 0
	cfg.RunUops = 50_000_000 // far longer than the test will allow
	cfg.EventSkip = true
	c, err := New(cfg, trace.SFP2K)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := c.RunContext(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v (res=%v)", err, res)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestFingerprintIgnoresEventSkip: skipping is identity-preserving, so a
// skipped and a stepped run of the same point must share memoized and
// persisted results.
func TestFingerprintIgnoresEventSkip(t *testing.T) {
	a := DefaultConfig(DesignSRL)
	b := DefaultConfig(DesignSRL)
	a.EventSkip = true
	b.EventSkip = false
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("EventSkip leaked into the config fingerprint")
	}
	if PointFingerprint(a, trace.SFP2K) != PointFingerprint(b, trace.SFP2K) {
		t.Fatal("EventSkip leaked into the point fingerprint")
	}
}

// skipExempt lists the Core fields the skip engine neither compares nor
// fingerprints by length, grouped by why a quiescent cycle cannot change
// them unseen.
var skipExempt = []struct {
	why    string
	fields []string
}{
	{"fixed before the first cycle", []string{"cfg", "prof", "snoopSink", "schedCap", "regCap"}},
	{"allocation pools and scratch: their contents are dead", []string{
		"uopFree", "nodeFree", "srlRetryScratch"}},
	{"touched only when a uop is fetched, allocated, executed, completed or squashed, which moves a length or scalar",
		[]string{"gen", "lastWriter", "order", "syncs", "bp", "mdp", "conf", "recentLoads"}},
	{"filters beside the queues: a lookup changes nothing but a read-block counter; an update rides on a queue insert or removal, which moves a length, or is a refused LCF increment or an FC hit, which move the write block",
		[]string{"mtb", "lcf", "fc"}},
	{"the memory system: an access that finds every MSHR busy changes nothing but read-block misses and, with the prefetcher on, the stream table, whose logged trainings the jump replays; any other access changes cache state, which its caller shows by a length, scalar or one-off metric; fills are nextEventCycle wake events",
		[]string{"mem"}},
	{"the snoop coin, which applySkip replays draw-for-draw", []string{"snoopRNG"}},
	{"moves only with measuring", []string{"actBase"}},
	{"the skip engine's own state and its output", []string{"skip", "final"}},
	{"observers the pipeline never reads", []string{"obsrv", "chk"}},
	{"a memo of an idle retry pass: it only skips passes that would change nothing", []string{"srlRetry"}},
}

// skipResultsExempt lists the Results fields outside the counter blocks,
// grouped by why the skip engine need not compare them.
var skipResultsExempt = []struct {
	why    string
	fields []string
}{
	{"New or finalize fills each once from Core state the Core rule covers", []string{
		"Suite", "Design", "Timeline", "Trace", "Divergences", "DivergenceCount", "stqFloor"}},
	{"compared per metric; the PerCycle ones are extrapolated", []string{"Metrics"}},
	{"accrues a skipped gap at its next Set", []string{"SRLOccupancy"}},
	{"bumped only beside EventCounts.MissDependentUops, which vetoes", []string{"PoisonedSrcDrains"}},
}

// settable returns v, a field reached through unexported names, as a value
// the test can set.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// TestSkipCoverage makes the skip engine's safety structural: every field of
// Core and Results must be compared whole by the probe verification,
// fingerprinted by length, or exempt with a reason — so a field added
// anywhere fails here until it is classified. Core's scalars must live in
// the scalars block; a move in any Results block must veto the skip,
// except in StallCounts, whose every field the jump must advance. Every
// structure-activity counter must sit in the read block, whose moves the
// jump extrapolates, or in the write block, whose moves veto. The
// prefetcher's trainings are in neither: they are logged, do not veto, and
// the jump replays them.
func TestSkipCoverage(t *testing.T) {
	scalarKind := func(k reflect.Kind) bool {
		return k == reflect.Bool || k == reflect.String ||
			(k >= reflect.Int && k <= reflect.Complex128)
	}
	fields := func(v any) map[string]reflect.StructField {
		m := map[string]reflect.StructField{}
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			m[typ.Field(i).Name] = typ.Field(i)
		}
		return m
	}

	core := fields(Core{})
	covered := map[string]string{
		"scalars": "compared whole in skipFP",
		"res":     "compared block by block (the Results rule below)",
		"cycle":   "the clock the jump advances",
	}
	for name := range fields(skipLens{}) {
		covered[name] = "fingerprinted by length"
	}
	covered["pendingFetch"] = "fingerprinted by nil-ness"
	for _, g := range skipExempt {
		for _, name := range g.fields {
			if prev, dup := covered[name]; dup {
				t.Errorf("Core.%s is exempt (%s) but already %s", name, g.why, prev)
			}
			covered[name] = g.why
		}
	}
	for name, why := range covered {
		if _, ok := core[name]; !ok {
			t.Errorf("stale skip classification: Core has no field %s (%s)", name, why)
		}
	}
	for name, f := range core {
		if scalarKind(f.Type.Kind()) && name != "cycle" {
			t.Errorf("Core.%s is a scalar outside the scalars block", name)
		} else if _, ok := covered[name]; !ok {
			t.Errorf("Core.%s is neither compared, fingerprinted nor exempt from skip verification", name)
		}
	}

	exempt, res := map[string]bool{}, fields(Results{})
	for _, g := range skipResultsExempt {
		for _, name := range g.fields {
			if _, ok := res[name]; !ok {
				t.Errorf("stale skip exemption: Results has no field %s (%s)", name, g.why)
			}
			exempt[name] = true
		}
	}
	c, err := New(shortCfg(DesignSRL), trace.SFP2K)
	if err != nil {
		t.Fatal(err)
	}
	c.skip.snap = c.skipCapture()
	if !c.verifySkip() {
		t.Fatal("an untouched core fails skip verification")
	}
	rv := reflect.ValueOf(&c.res).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if !f.Anonymous {
			if !exempt[f.Name] {
				t.Errorf("Results.%s is outside the compared counter blocks", f.Name)
			}
			continue
		}
		stalls := f.Type == reflect.TypeOf(StallCounts{})
		block := rv.Field(i)
		for j := 0; j < block.NumField(); j++ {
			name, fv := block.Type().Field(j).Name, block.Field(j)
			if fv.Kind() != reflect.Uint64 {
				t.Errorf("%s.%s is not a uint64 counter", f.Name, name)
				continue
			}
			fv.SetUint(fv.Uint() + 1)
			if vetoed := !c.verifySkip(); vetoed == stalls {
				t.Errorf("a move in %s.%s: skip vetoed = %v", f.Name, name, vetoed)
			}
			fv.SetUint(fv.Uint() - 1)
		}
	}

	var cur, probe StallCounts
	v := reflect.ValueOf(&cur).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(1)
	}
	extrapolateStalls(&cur, &probe, 1)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Uint() != 2 {
			t.Errorf("extrapolateStalls does not advance StallCounts.%s", v.Type().Field(i).Name)
		}
	}

	// The activity rule: every counter sits in the read block, whose moves
	// the jump extrapolates, or in the write block, whose moves veto. A
	// probe that moved a counter by one is simulated by lowering the
	// snapshot's copy.
	readT, writeT := reflect.TypeOf(readActivity{}), reflect.TypeOf(writeActivity{})
	av := reflect.ValueOf(&c.skip.snap.act).Elem()
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if !f.Anonymous || (f.Type != readT && f.Type != writeT) {
			t.Errorf("activity.%s is in neither the read nor the write block", f.Name)
			continue
		}
		reads := f.Type == readT
		block := av.Field(i)
		for j := 0; j < block.NumField(); j++ {
			name, fv := block.Type().Field(j).Name, settable(block.Field(j))
			if fv.Kind() != reflect.Uint64 {
				t.Errorf("%s.%s is not a uint64 counter", f.Name, name)
				continue
			}
			fv.SetUint(fv.Uint() - 1)
			if vetoed := !c.verifySkip(); vetoed == reads {
				t.Errorf("a move in %s.%s: skip vetoed = %v", f.Name, name, vetoed)
			}
			if reads {
				c.addSkipDeltas(3)
				var want readActivity
				settable(reflect.ValueOf(&want).Elem().Field(j)).SetUint(3)
				if c.skip.reads != want {
					t.Errorf("a move in %s.%s extrapolates to %+v, want %+v", f.Name, name, c.skip.reads, want)
				}
				c.skip.reads = readActivity{}
			}
			fv.SetUint(fv.Uint() + 1)
		}
	}

	// The training rule: the prefetcher's stream table is in no block. A
	// probe whose misses all found every MSHR busy trained it and still
	// verifies, and the jump replays the logged trainings once per skipped
	// cycle, as a hierarchy that took the same misses each cycle shows.
	c, err = New(shortCfg(DesignSRL), trace.SFP2K)
	if err != nil {
		t.Fatal(err)
	}
	ref := cachesim.NewHierarchy(c.cfg.Mem)
	la := busyMSHRs(c.mem, c.cfg.Mem.MSHRs)
	busyMSHRs(ref, c.cfg.Mem.MSHRs)
	retry := func(h *cachesim.Hierarchy, cycle uint64) {
		h.Access(cycle, la+64, false)   // extends la's stream
		h.Access(cycle, la<<1, false)   // takes a slot
		h.Access(cycle, la<<1+64, true) // extends that stream, confirming it
	}
	c.skip.snap = c.skipCapture()
	c.mem.RecordTrainings()
	retry(c.mem, c.cycle)
	c.mem.StopTrainings()
	if !c.verifySkip() {
		t.Fatal("a probe that only trained the prefetcher behind a full MSHR file fails verification")
	}
	const w = 5
	c.addSkipDeltas(w)
	for cycle := c.cycle; cycle <= c.cycle+w; cycle++ {
		retry(ref, cycle)
	}
	if got, want := c.mem.StreamTable(), ref.StreamTable(); !slices.Equal(got, want) {
		t.Errorf("a jump over %d cycles left the stream table %+v, stepping %+v", w, got, want)
	}
}
