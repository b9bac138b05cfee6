package check

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/trace"
	"srlproc/internal/xrand"
)

// FuzzOracle is the native fuzz entry: each case derives a design point
// from the arguments (design and suite pinned by the selectors, every
// other knob sampled from seed), records a workload slice, and runs it
// with the differential oracle in lockstep. Any divergence fails the
// case; `go test -run TestSeedCorpus`-style execution of the seed corpus
// happens on every plain `go test` run, and `make fuzz` gives the engine
// a time budget to explore beyond it.
func FuzzOracle(f *testing.F) {
	// Seed corpus: every design × a couple of suites and seeds, so even
	// the no-budget corpus pass touches all five store organisations.
	for design := uint8(0); design < 5; design++ {
		f.Add(uint64(1), design, uint8(design))
		f.Add(uint64(0x5eed+uint64(design)), design, uint8(6-design))
	}
	// Ordering + far-memory coverage: these seeds sample points with
	// fences/acquire-release traffic AND the far tier enabled (the sampler
	// rolls both knobs from the seed), one per store organisation.
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(2), uint8(3))
	f.Add(uint64(4), uint8(3), uint8(4))
	f.Add(uint64(7), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, designSel, profSel uint8) {
		pt := PointFromArgs(seed, designSel, profSel)
		// Both runs sample a timeline, so a skip-identity failure names
		// the first window where they part, not just the final document.
		// Observation never perturbs results or divergences.
		pt.Cfg.Obs.SampleEvery = 256
		uops := CaptureFor(pt.Cfg, pt.Suite)
		res, err := RunChecked(pt.Cfg, pt.Suite, uops)
		if err != nil {
			t.Fatalf("point %s/%s seed=%#x failed to run: %v",
				pt.Cfg.Design, pt.Suite, pt.Cfg.Seed, err)
		}
		if res.DivergenceCount > 0 {
			for _, d := range res.Divergences {
				t.Logf("divergence: %s", d)
			}
			t.Fatalf("%d divergences on %s/%s seed=%#x (srl=%d lcf=%v/%d fc=%v/%d lb=%d/%v ckpt=%d/%d win=%d mshrs=%d pf=%v)",
				res.DivergenceCount, pt.Cfg.Design, pt.Suite, pt.Cfg.Seed,
				pt.Cfg.SRLSize, pt.Cfg.UseLCF, pt.Cfg.LCFSize,
				pt.Cfg.UseFC, pt.Cfg.FCSize,
				pt.Cfg.LoadBufAssoc, pt.Cfg.LoadBufPolicy,
				pt.Cfg.Checkpoints, pt.Cfg.CkptInterval, pt.Cfg.WindowCap,
				pt.Cfg.Mem.MSHRs, pt.Cfg.Mem.PrefetchOn)
		}
		// Skip-identity round: the same point with the cycle-skip
		// fast-forward inverted must produce identical timeline samples
		// and a byte-identical Results document — the fuzzer explores the
		// config space the curated golden suite cannot.
		flipped := pt.Cfg
		flipped.EventSkip = !pt.Cfg.EventSkip
		res2, err := RunChecked(flipped, pt.Suite, uops)
		if err != nil {
			t.Fatalf("EventSkip=%v rerun failed: %v", flipped.EventSkip, err)
		}
		if d := sampleDiff(res, res2); d != "" {
			t.Fatalf("EventSkip changed the timeline on %s/%s seed=%#x (skip=%v vs %v): %s",
				pt.Cfg.Design, pt.Suite, pt.Cfg.Seed, pt.Cfg.EventSkip, flipped.EventSkip, d)
		}
		a, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res2)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("EventSkip changed the Results document on %s/%s seed=%#x\n--- skip=%v ---\n%s\n--- skip=%v ---\n%s",
				pt.Cfg.Design, pt.Suite, pt.Cfg.Seed, pt.Cfg.EventSkip, a, flipped.EventSkip, b)
		}
	})
}

// sampleDiff describes the first timeline sample where a and b differ —
// its cycle and each differing field — or returns "" if they agree.
func sampleDiff(a, b *core.Results) string {
	as, bs := a.Timeline.Samples(), b.Timeline.Samples()
	for i := 0; i < len(as) && i < len(bs); i++ {
		if as[i] == bs[i] {
			continue
		}
		va, vb := reflect.ValueOf(as[i]), reflect.ValueOf(bs[i])
		var fields []string
		for f := 0; f < va.NumField(); f++ {
			if x, y := va.Field(f).Interface(), vb.Field(f).Interface(); x != y {
				fields = append(fields, fmt.Sprintf("%s %+v vs %+v", va.Type().Field(f).Name, x, y))
			}
		}
		return fmt.Sprintf("first differing sample at cycle %d: %s", as[i].Cycle, strings.Join(fields, "; "))
	}
	if len(as) != len(bs) {
		return fmt.Sprintf("%d vs %d timeline samples", len(as), len(bs))
	}
	return ""
}

// TestSamplePointValidates proves every sampled configuration is legal:
// the fuzzer must never trip over Config.Validate instead of a real bug.
func TestSamplePointValidates(t *testing.T) {
	rng := xrand.New(7)
	for i := 0; i < 2000; i++ {
		pt := SamplePoint(rng)
		if err := pt.Cfg.Validate(); err != nil {
			t.Fatalf("sample %d invalid: %v (%+v)", i, err, pt.Cfg)
		}
	}
}

// TestSliceSourceLoops pins the slice source's looping semantics to the
// trace.Reader contract: dense monotonic sequence numbers across the wrap
// and producer references shifted with them.
func TestSliceSourceLoops(t *testing.T) {
	uops := Capture(trace.SINT2K, 3, 100)
	src := NewSliceSource(uops)
	var last uint64
	for i := 0; i < 350; i++ {
		u := src.Next()
		if u.Seq != last+1 {
			t.Fatalf("uop %d: seq %d after %d (not dense)", i, u.Seq, last)
		}
		if u.MemSeq != 0 && u.MemSeq >= u.Seq {
			t.Fatalf("uop %d: producer ref %d not older than load %d", i, u.MemSeq, u.Seq)
		}
		last = u.Seq
	}
}
