package cachesim

import (
	"math"
	"testing"
)

func smallHier() *Hierarchy {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	return NewHierarchy(cfg)
}

func TestAccessLevels(t *testing.T) {
	h := smallHier()
	r := h.Access(100, 0x1000, false)
	if r.Level != 3 {
		t.Fatalf("cold access level %d", r.Level)
	}
	if r.Done != 100+800+3 {
		t.Fatalf("memory access done %d", r.Done)
	}
	// After the fill time, both levels hit.
	r = h.Access(2000, 0x1000, false)
	if r.Level != 1 || r.Done != 2003 {
		t.Fatalf("warm access level=%d done=%d", r.Level, r.Done)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, false)
	// Evict from L1 by filling its set (L1: 32KB/4way/64B = 128 sets;
	// conflicting addresses are 128*64=8192 apart).
	for i := 1; i <= 4; i++ {
		h.Access(1000, uint64(0x1000+i*8192), false)
	}
	r := h.Access(5000, 0x1000, false)
	if r.Level != 2 {
		t.Fatalf("expected L2 hit after L1 eviction, got level %d", r.Level)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := smallHier()
	r1 := h.Access(100, 0x1000, false)
	r2 := h.Access(150, 0x1008, false) // same line, 50 cycles later
	if h.MemAccesses() != 1 {
		t.Fatalf("merged access fetched the line again (%d memory fetches)", h.MemAccesses())
	}
	if r2.Done != r1.Done {
		t.Fatalf("merged access fill %d vs %d", r2.Done, r1.Done)
	}
}

func TestMSHRFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	if h.Access(100, 0x10000, false).MSHRFull || h.Access(100, 0x20000, false).MSHRFull {
		t.Fatal("a miss rejected with an MSHR free")
	}
	r := h.Access(100, 0x30000, false)
	if !r.MSHRFull {
		t.Fatal("third concurrent miss admitted with 2 MSHRs")
	}
	if h.MemAccesses() != 2 {
		t.Fatalf("%d memory fetches, want 2: the rejected miss must not fetch", h.MemAccesses())
	}
	// Once the fills complete, new misses are admitted again.
	r = h.Access(2000, 0x30000, false)
	if r.MSHRFull {
		t.Fatal("MSHRs not freed after fill time")
	}
}

// TestPrefetchTrainsCountsEveryL1Miss: every L1 miss trains the stream
// prefetcher, admitted or turned away by a full MSHR file, and an L1 hit
// does not. The core's skip engine reads the count to see a stream table
// change that nothing else shows.
func TestPrefetchTrainsCountsEveryL1Miss(t *testing.T) {
	for _, on := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.PrefetchOn = on
		cfg.MSHRs = 1
		h := NewHierarchy(cfg)
		h.Access(100, 0x10000, false)
		if !h.Access(100, 0x30000, false).MSHRFull {
			t.Fatal("a second miss admitted with 1 MSHR")
		}
		h.Access(101, 0x10000, false)
		want := uint64(0)
		if on {
			want = 2
		}
		if got := h.PrefetchTrains(); got != want {
			t.Errorf("prefetcher on=%v: %d trains, want %d", on, got, want)
		}
	}
}

func TestWriteAllocatesAndDirties(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, true)
	// L1 holds the line dirty: evicting it must push it to L2 dirty and
	// count a writeback.
	for i := 1; i <= 4; i++ {
		h.Access(1000, uint64(0x1000+i*8192), false)
	}
	if h.L1.Writebacks() != 1 {
		t.Fatalf("L1 writebacks %d", h.L1.Writebacks())
	}
}

// TestWriteHitDirtiesLine: a store that hits the L1 dirties the line it
// found, and a load that hits leaves it clean.
func TestWriteHitDirtiesLine(t *testing.T) {
	h := smallHier()
	for i, write := range []bool{false, true} {
		now := uint64(i) * 10000
		h.Access(now, 0x1000, false) // fills the L1 clean
		if r := h.Access(now+1000, 0x1000, write); r.Level != 1 {
			t.Fatalf("write=%v: second access served by level %d, want the L1", write, r.Level)
		}
		present, dirty := h.L1.Invalidate(0x1000)
		if !present || dirty != write {
			t.Fatalf("write=%v hit: invalidate found present=%v dirty=%v", write, present, dirty)
		}
		if h.L1.Contains(0x1000) {
			t.Fatal("line still present after invalidate")
		}
	}
}

func TestSnoopInvalidatesBothLevels(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, false)
	if !h.L1.Contains(0x1000) || !h.L2.Contains(0x1000) {
		t.Fatal("access did not fill both levels")
	}
	if !h.Snoop(0x1000) {
		t.Fatal("snoop missed a resident line")
	}
	if h.L1.Contains(0x1000) || h.L2.Contains(0x1000) {
		t.Fatal("line survived snoop")
	}
}

func TestPseudoInclusiveVictims(t *testing.T) {
	// Clean L1 victims must re-register in L2 so long-L1-resident lines
	// (whose L2 copies age out, since L1 hits don't refresh L2 LRU) never
	// silently fall all the way to memory. Because L1 index bits nest
	// inside L2 index bits, any traffic that could age a line out of its
	// L2 set necessarily evicts it from L1 first — and that eviction
	// re-registers it. Verify the re-registration directly: drop the L2
	// copy, then evict the L1 copy and check it lands back in L2.
	h := smallHier()
	h.Access(0, 0x1000, false) // resident in L1+L2
	h.L2.Invalidate(0x1000)    // L2 copy aged out
	for i := 1; i <= 4; i++ {
		h.Access(2000, uint64(0x1000+i*8192), false) // evict from L1 (4-way)
	}
	if h.L1.Contains(0x1000) {
		t.Fatal("test setup: line still in L1")
	}
	if !h.L2.Contains(0x1000) {
		t.Fatal("clean L1 victim not re-registered in L2")
	}
}

// TestMissAfterExpiredFill: a line evicted from both levels after its fill
// completed misses to memory again; the completed MSHR entry that lingers
// until the next prune must not pass for an in-flight miss to merge into.
func TestMissAfterExpiredFill(t *testing.T) {
	h := smallHier()
	if r := h.Access(0, 0x5000, false); r.Level != 3 || h.MemAccesses() != 1 {
		t.Fatalf("cold line: level %d after %d memory fetches", r.Level, h.MemAccesses())
	}
	if r := h.Access(100, 0x5000, false); r.Level != 1 || h.MemAccesses() != 1 {
		t.Fatalf("pending line: level %d after %d memory fetches", r.Level, h.MemAccesses())
	}
	h.L1.Invalidate(0x5000)
	h.L2.Invalidate(0x5000)
	if r := h.Access(5000, 0x5000, false); r.Level != 3 || r.Done != 5000+800+3 || h.MemAccesses() != 2 {
		t.Fatalf("expired fill: level %d done %d after %d memory fetches, want a new fetch done at %d",
			r.Level, r.Done, h.MemAccesses(), 5000+800+3)
	}
}

// TestMSHRAdmitsAfterCompletion drives the file to its cap, advances past
// every fill's completion, and requires the next distinct-line miss to be
// admitted: Access must prune completed fills before applying the cap, or
// stale entries reject admissible accesses forever.
func TestMSHRAdmitsAfterCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	h.Access(100, 0x10000, false)
	h.Access(100, 0x20000, false)
	if r := h.Access(100, 0x30000, false); !r.MSHRFull {
		t.Fatal("third concurrent miss admitted with 2 MSHRs")
	}
	// Both fills complete at cycle 900. At 901 the file is logically empty.
	r := h.Access(901, 0x40000, false)
	if r.MSHRFull {
		t.Fatal("miss rejected after all outstanding fills completed")
	}
	if r.Level != 3 || r.Done != 901+800+3 {
		t.Fatalf("admitted miss level=%d done=%d", r.Level, r.Done)
	}
	if got := h.MemAccesses(); got != 3 {
		t.Fatalf("%d memory fetches, want 3: the rejected miss must not fetch", got)
	}
}

// TestDiscardSpecInto: both Hierarchy discards drop their L1 lines into
// L2, where the pre-store architectural data lives.
func TestDiscardSpecInto(t *testing.T) {
	for _, temp := range []bool{false, true} {
		h := smallHier()
		h.Access(0, 0x1000, false)
		h.L1.SpecWrite(0x1000, 1, temp)
		h.L2.Invalidate(0x1000)
		var n int
		if temp {
			n = h.DiscardSpecTemp(100)
		} else {
			n = h.DiscardSpecFrom(100, 0)
		}
		if n != 1 {
			t.Fatalf("temp=%v: discarded %d", temp, n)
		}
		if h.L1.Contains(0x1000) || !h.L2.Contains(0x1000) {
			t.Fatalf("temp=%v: discarded spec line not moved from L1 to L2", temp)
		}
	}
}

func TestPrefetcherCoversStream(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	cycle := uint64(1000)
	base := uint64(0x8000_0000)
	slow, total := 0, 0
	for line := uint64(0); line < 200; line++ {
		for a := uint64(0); a < 8; a++ {
			res := h.Access(cycle, base+line*64+a*8, false)
			if res.MSHRFull {
				cycle += 5
				continue
			}
			total++
			if res.Done > cycle+50 && line > 10 {
				slow++
			}
			cycle += 112
		}
	}
	if slow > total/20 {
		t.Fatalf("stream poorly covered: %d slow of %d", slow, total)
	}
	// The prefetcher runs ahead of the demand stream: the line after the
	// last one demanded is already on its way.
	if !h.L2.Contains(base + 200*64) {
		t.Fatal("no prefetch ran ahead of the stream")
	}
}

func TestPrefetcherDescendingStream(t *testing.T) {
	p := NewStreamPrefetcher(4, 2)
	base := uint64(0x9000_0000)
	p.OnMiss(base, 1)
	out := p.OnMiss(base-64, 2) // descending neighbour confirms
	if len(out) != 2 || out[0] != base-128 {
		t.Fatalf("descending prefetch %v", out)
	}
}

// TestPrefetcherConfirmedStreamAllocatesNothing: OnMiss returns a
// confirmed stream's prefetch lines in the prefetcher's own buffer, so a
// demand stream the prefetcher runs ahead of allocates nothing per miss.
func TestPrefetcherConfirmedStreamAllocatesNothing(t *testing.T) {
	p := NewStreamPrefetcher(16, 12)
	la := uint64(0x8000_0000)
	p.OnMiss(la, 1)
	tick := uint64(2)
	extend := func() {
		la += 64
		if out := p.OnMiss(la, tick); len(out) != 12 || out[0] != la+64 || out[11] != la+12*64 {
			t.Fatalf("confirmed stream at %#x prefetched %v", la, out)
		}
		tick++
	}
	extend() // the neighbour confirms the stream
	if n := testing.AllocsPerRun(100, extend); n != 0 {
		t.Fatalf("OnMiss on a confirmed stream made %.1f allocations, want 0", n)
	}
}

func TestPrefetcherSlotReplacement(t *testing.T) {
	p := NewStreamPrefetcher(2, 2)
	p.OnMiss(0x1000, 1)
	p.OnMiss(0x9000, 2)
	p.OnMiss(0x20000, 3) // evicts the LRU unconfirmed slot
	// The first stream's continuation now re-allocates rather than confirms.
	if out := p.OnMiss(0x1040, 4); len(out) != 0 {
		// Acceptable: 0x1040 may pair with a surviving neighbour slot; the
		// contract is merely that nothing panics and slots recycle.
		t.Logf("continuation produced %v", out)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		ok   bool
	}{
		{"defaults", func(*Config) {}, true},
		{"one MSHR", func(c *Config) { c.MSHRs = 1 }, true},
		{"zero MSHRs", func(c *Config) { c.MSHRs = 0 }, false},
		{"negative MSHRs", func(c *Config) { c.MSHRs = -1 }, false},
		{"far tier", func(c *Config) { c.FarFrac, c.FarLatency = 0.5, 2000 }, true},
		{"FarFrac above one", func(c *Config) { c.FarFrac, c.FarLatency = 1.5, 2000 }, false},
		{"FarFrac without latency", func(c *Config) { c.FarFrac = 0.5 }, false},
		{"negative FarFrac", func(c *Config) { c.FarFrac, c.FarLatency = -0.5, 2000 }, false},
		{"NaN FarFrac", func(c *Config) { c.FarFrac, c.FarLatency = math.NaN(), 2000 }, false},
		{"NaN FarFrac without latency", func(c *Config) { c.FarFrac = math.NaN() }, false},
		{"degrade without latency", func(c *Config) { c.FarDegradeAfter = 100 }, false},
		{"no L1 ways", func(c *Config) { c.L1Assoc = 0 }, false},
		{"more ways than lines", func(c *Config) { c.L1Assoc = c.L1Size/64 + 1 }, false},
		{"ways that overflow the set size", func(c *Config) { c.L2Assoc = 1 << 58 }, false},
		{"fully associative", func(c *Config) { c.L1Assoc = c.L1Size / 64 }, true},
		{"L2 set count not a power of two", func(c *Config) { c.L2Assoc = 3 }, false},
		{"empty L2", func(c *Config) { c.L2Size = 0 }, false},
		{"L2 at the size bound", func(c *Config) { c.L2Size = MaxCacheBytes }, true},
		{"L2 over the size bound", func(c *Config) { c.L2Size = 2 * MaxCacheBytes }, false},
		{"MSHRs at the bound", func(c *Config) { c.MSHRs = MaxMSHRs }, true},
		{"MSHRs over the bound", func(c *Config) { c.MSHRs = MaxMSHRs + 1 }, false},
		{"no prefetch streams", func(c *Config) { c.PrefetchN = 0 }, false},
		{"no streams, prefetcher off", func(c *Config) { c.PrefetchN, c.PrefetchOn = 0, false }, true},
		{"streams over the bound", func(c *Config) { c.PrefetchN = MaxPrefetchStreams + 1 }, false},
		{"negative prefetch depth", func(c *Config) { c.PrefetchD = -1 }, false},
		{"depth over the bound", func(c *Config) { c.PrefetchD = MaxPrefetchDepth + 1 }, false},
		{"zero latencies", func(c *Config) { c.L1Latency, c.L2Latency, c.MemLatency = 0, 0, 0 }, true},
		{"latencies at the bound", func(c *Config) {
			c.L1Latency, c.L2Latency, c.MemLatency = MaxLatency, MaxLatency, MaxLatency
			c.FarFrac, c.FarLatency = 0.5, MaxLatency
			c.FarDegradeAfter, c.FarDegradedLatency = 100, MaxLatency
		}, true},
		{"L1 latency over the bound", func(c *Config) { c.L1Latency = MaxLatency + 1 }, false},
		{"L2 latency over the bound", func(c *Config) { c.L2Latency = MaxLatency + 1 }, false},
		{"memory latency over the bound", func(c *Config) { c.MemLatency = MaxLatency + 1 }, false},
		{"memory latency that wraps the cycle count", func(c *Config) { c.MemLatency = ^uint64(0) }, false},
		{"far latency over the bound", func(c *Config) { c.FarFrac, c.FarLatency = 0.5, MaxLatency+1 }, false},
		{"degraded latency over the bound", func(c *Config) {
			c.FarFrac, c.FarLatency = 0.5, 2000
			c.FarDegradeAfter, c.FarDegradedLatency = 100, MaxLatency+1
		}, false},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// pendingFillSink keeps BenchmarkHierarchyMissPath's side-effect-free
// EarliestPendingFill calls from being optimized away.
var pendingFillSink uint64

// BenchmarkHierarchyMissPath measures demand accesses that all miss to
// memory, arriving faster than fills return, so the MSHR file stays full:
// every access prunes, searches and either fills or rejects an entry. The
// skip engine's EarliestPendingFill probe rides along once per access.
func BenchmarkHierarchyMissPath(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	x := uint64(0x9E3779B97F4A7C15)
	var cycle, full uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13 // xorshift64: scattered lines, no stream to prefetch
		x ^= x >> 7
		x ^= x << 17
		cycle += 20 // 40 accesses per 800-cycle fill against 32 MSHRs
		if h.Access(cycle, x&(1<<34-1), false).MSHRFull {
			full++
		}
		next, _ := h.EarliestPendingFill(cycle)
		pendingFillSink += next
	}
	b.ReportMetric(float64(full)/float64(b.N), "mshr-full/op")
}
