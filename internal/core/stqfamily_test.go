package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"srlproc/internal/obs"
	"srlproc/internal/trace"
)

// runDoc runs cfg on suite and returns the core, its results and their
// JSON document.
func runDoc(t *testing.T, cfg Config, suite trace.Suite) (*Core, *Results, []byte) {
	t.Helper()
	c, err := New(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return c, r, doc
}

// TestUnfilledSTQAnswersLargerSizes checks the rule Results.Answers states
// on every design that sizes a queue by STQSize: a run at size s whose
// queue's high-water mark h stayed below s is the run at every size above
// h, byte for byte, with cycle skipping on and off, with the timeline and
// event trace on, and with the differential oracle on.
func TestUnfilledSTQAnswersLargerSizes(t *testing.T) {
	const s = 1024
	variants := []struct {
		name string
		set  func(*Config)
	}{
		{"skip", func(*Config) {}},
		{"step", func(c *Config) { c.EventSkip = false }},
		{"obs", func(c *Config) { c.Obs = obs.Config{SampleEvery: 1024, TraceEvents: true} }},
		{"check", func(c *Config) { c.Check = true }},
	}
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignFilteredSTQ} {
		for _, su := range []trace.Suite{trace.SINT2K, trace.WEB, trace.SERVER} {
			for _, v := range variants {
				cfg := DefaultConfig(d)
				cfg.WarmupUops, cfg.RunUops, cfg.STQSize = 3_000, 10_000, s
				v.set(&cfg)
				c, r, want := runDoc(t, cfg, su)
				h := c.l1stq.HighWater()
				if h >= s || r.stqFloor != h+1 || !r.Answers(cfg) {
					t.Fatalf("%v/%s/%s: mark %d, floor %d at size %d: want an unfilled queue", d, su, v.name, h, r.stqFloor, s)
				}
				for _, size := range []int{h + 1, 16384} {
					cfg.STQSize = size
					if !r.Answers(cfg) {
						t.Errorf("%v/%s/%s: mark %d does not answer size %d", d, su, v.name, h, size)
					}
					if _, _, got := runDoc(t, cfg, su); !bytes.Equal(got, want) {
						t.Errorf("%v/%s/%s: size %d differs from size %d (mark %d)", d, su, v.name, size, s, h)
					}
				}
				if cfg.STQSize = h; r.Answers(cfg) {
					t.Errorf("%v/%s/%s: mark %d answers size %d", d, su, v.name, h, h)
				}
			}
		}
	}
}

// TestFilledSTQWitness pins the quick-scale SFP2K point whose 256-entry
// queue filled during the warm-up: its measured region counts no STQ
// stall, yet it runs 51,234 cycles against 52,138 at 512 and 1K entries.
// A filled queue answers no other size, and a measured-region stall
// count cannot tell that it filled.
func TestFilledSTQWitness(t *testing.T) {
	at := func(size int) Config {
		cfg := DefaultConfig(DesignLargeSTQ)
		cfg.WarmupUops, cfg.RunUops, cfg.STQSize = 8_000, 40_000, size
		return cfg
	}
	c, r, _ := runDoc(t, at(256), trace.SFP2K)
	if r.StallSTQ != 0 || c.l1stq.HighWater() != 256 || r.Cycles != 51_234 {
		t.Fatalf("256 entries: stallSTQ %d, mark %d, %d cycles; want 0, 256, 51234",
			r.StallSTQ, c.l1stq.HighWater(), r.Cycles)
	}
	for _, size := range []int{255, 256, 257, 512, 1024, 16384} {
		if r.Answers(at(size)) {
			t.Errorf("a filled 256-entry queue answers size %d", size)
		}
	}
	for _, size := range []int{512, 1024} {
		if _, big, _ := runDoc(t, at(size), trace.SFP2K); big.Cycles != 52_138 {
			t.Errorf("%d entries: %d cycles, want 52138", size, big.Cycles)
		}
	}
}

// TestSTQMarkScope checks where a mark is usable: only on the designs
// that size a queue by STQSize, only for valid configs, and never on a
// document decoded from JSON.
func TestSTQMarkScope(t *testing.T) {
	for _, d := range []StoreDesign{DesignHierarchical, DesignSRL} {
		cfg := shortCfg(d)
		cfg.STQSize = 1024
		_, r, _ := runDoc(t, cfg, trace.WEB)
		if r.stqFloor != 0 || r.Answers(cfg) {
			t.Errorf("%v reports a usable store-queue mark (floor %d)", d, r.stqFloor)
		}
	}
	cfg := shortCfg(DesignLargeSTQ)
	cfg.STQSize = 1024
	_, r, doc := runDoc(t, cfg, trace.WEB)
	if !r.Answers(cfg) {
		t.Fatal("an unfilled 1K queue does not answer its own point")
	}
	for _, size := range []int{0, 16385} {
		bad := cfg
		bad.STQSize = size
		if r.Answers(bad) {
			t.Errorf("mark answers the invalid size %d", size)
		}
	}
	var back Results
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Answers(cfg) {
		t.Error("a decoded document answers a point")
	}
}

// TestSTQFamily checks the family key: the point fingerprint blind to
// STQSize alone.
func TestSTQFamily(t *testing.T) {
	a := DefaultConfig(DesignLargeSTQ)
	b := a
	b.STQSize = 512
	if STQFamily(a, trace.WS) != STQFamily(b, trace.WS) {
		t.Fatal("STQSize moves the family key")
	}
	if PointFingerprint(a, trace.WS) == PointFingerprint(b, trace.WS) {
		t.Fatal("STQSize does not move the point fingerprint")
	}
	b.Seed++
	if STQFamily(a, trace.WS) == STQFamily(b, trace.WS) {
		t.Fatal("the seed does not move the family key")
	}
	if STQFamily(a, trace.WS) == STQFamily(a, trace.MM) {
		t.Fatal("the suite does not move the family key")
	}
	if c := DefaultConfig(DesignFilteredSTQ); STQFamily(a, trace.WS) == STQFamily(c, trace.WS) {
		t.Fatal("the design does not move the family key")
	}
}
