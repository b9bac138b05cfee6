package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"srlproc/internal/isa"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
	"srlproc/internal/trace"
)

// TestResultsMarshalJSONIsFinal: a document from Results.MarshalJSON is
// already what json.Marshal makes of it, compact and HTML-escaped, so
// /v1/simulate can write it without a second pass. Every optional block is
// exercised: the timeline, the trace summary, fences, far-memory counters,
// divergences whose text needs escaping, and zero and non-zero extras.
func TestResultsMarshalJSONIsFinal(t *testing.T) {
	run := func(name string, mod func(*Config)) *Results {
		t.Helper()
		cfg := DefaultConfig(DesignSRL)
		cfg.WarmupUops, cfg.RunUops = 1_000, 5_000
		mod(&cfg)
		c, err := New(cfg, trace.SFP2K)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return c.Run()
	}
	plain := run("plain", func(*Config) {})
	observed := run("observed", func(c *Config) { c.Obs = obs.Config{SampleEvery: 1024, TraceEvents: true} })
	ordered := run("ordered", func(c *Config) {
		c.FencePer1K, c.AcquireFrac, c.ReleaseFrac = 4, 0.1, 0.1
		c.Mem.FarFrac, c.Mem.FarLatency = 0.3, 1600
	})
	noExtras := *plain
	noExtras.PoisonedSrcDrains = PoisonedSrcCounts{}
	diverged := *plain
	diverged.Divergences = []oracle.Divergence{
		{Kind: oracle.KindForwardAge, Cycle: 9, LoadSeq: 4, StoreSeq: 3, Addr: 0x40, Expected: 1, Actual: 2,
			Detail: `store <seq 3> & load "4" > 'head'`,
			Events: []obs.Event{{Cycle: 8, Kind: obs.EvRestart, Arg: 1}}},
		{Kind: oracle.KindCommitVisibility, Detail: "</script>"},
	}
	diverged.DivergenceCount = 2

	if plain.PoisonedSrcDrains == (PoisonedSrcCounts{}) {
		t.Fatal("the plain run drained no uop behind a poisoned source: its extras are empty")
	}
	if observed.Timeline == nil || observed.Trace == nil {
		t.Fatal("the observed run carries no timeline or trace")
	}
	if ordered.Fences == 0 || ordered.FarAccesses == 0 {
		t.Fatalf("the ordered run made %d fences and %d far accesses", ordered.Fences, ordered.FarAccesses)
	}
	for name, r := range map[string]*Results{
		"plain": plain, "observed": observed, "ordered": ordered,
		"no extras": &noExtras, "divergences": &diverged, "empty": {},
	} {
		got, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON differs from json.Marshal:\n%s\n%s", name, got, want)
		}
	}
	doc, _ := diverged.MarshalJSON()
	if bytes.ContainsAny(doc, "<>&") || !bytes.Contains(doc, []byte(`\u003c/script\u003e`)) {
		t.Errorf("divergence text is not HTML-escaped: %s", doc)
	}
}

// TestPoisonedSrcCountsJSON: the extras appender renders what
// encoding/json made of the sorted name→value map it replaced.
func TestPoisonedSrcCountsJSON(t *testing.T) {
	var all PoisonedSrcCounts
	for i := range all {
		all[i] = uint64(i*1000 + 7)
	}
	var one PoisonedSrcCounts
	one[len(one)-1] = 1 << 63
	for _, pc := range []PoisonedSrcCounts{{}, one, all} {
		m := map[string]uint64{}
		for cl, v := range pc {
			if v > 0 {
				m[poisonedSrcPrefix+isa.Class(cl).String()] = v
			}
		}
		want, _ := json.Marshal(m)
		got, err := pc.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("extras %v: got %s (%v), want %s", pc, got, err, want)
		}
		var back PoisonedSrcCounts
		if err := json.Unmarshal(got, &back); err != nil || back != pc {
			t.Errorf("extras %v did not round-trip: %v %v", pc, back, err)
		}
	}
}
