package trace

import (
	"fmt"
	"hash/fnv"
	"testing"
	"unsafe"
)

// TestTmplSize pins a program site at 24 bytes: its PC is derived from its
// index and a patterned branch keeps its own position, so the 4,096-site
// program a generator builds takes 96 KiB instead of 288 KiB at 72 bytes.
func TestTmplSize(t *testing.T) {
	if n := unsafe.Sizeof(tmpl{}); n != 24 {
		t.Fatalf("tmpl is %d bytes, want 24", n)
	}
}

// goldenStreamUops is how many micro-ops of each stream
// TestGeneratorStreamGolden digests.
const goldenStreamUops = 200_000

// goldenVariants are the profile shapes the simulator actually feeds the
// generator: a suite's calibrated profile as is, with the ordering
// experiment's knobs, and as core 1 of a multicore run with shared data.
var goldenVariants = []struct {
	name  string
	apply func(*Profile)
}{
	{"default", func(*Profile) {}},
	{"ordering", func(p *Profile) { p.FencePer1K, p.AcquireFrac, p.ReleaseFrac = 3, 0.12, 0.12 }},
	{"multicore", func(p *Profile) { p.CoreID, p.SharedHotFrac = 1, 0.1 }},
}

// streamDigest is the FNV-1a hash of the first n micro-ops of g, encoded
// as a .srlt trace (which carries every Uop field).
func streamDigest(t testing.TB, g *Generator, n uint64) string {
	h := fnv.New64a()
	if err := Record(h, g, n); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorStreamGolden pins the generator's output: every suite, two
// seeds and each profile variant must reproduce the digest recorded when
// the generator kept its register sets in maps. A change here changes
// every simulated result, so a failure means the stream moved, not that
// the table needs updating.
func TestGeneratorStreamGolden(t *testing.T) {
	want := map[string]string{
		"SFP2K/default/seed1":    "197530996504a403",
		"SFP2K/default/seed2":    "219f55cd0c969bd7",
		"SFP2K/ordering/seed1":   "f7194238626f0c8e",
		"SFP2K/ordering/seed2":   "0f7ede422aae54c2",
		"SFP2K/multicore/seed1":  "1a3e2825dfea0136",
		"SFP2K/multicore/seed2":  "9e58a9220aad07f7",
		"SINT2K/default/seed1":   "f98a0507fdeda096",
		"SINT2K/default/seed2":   "5d592171dfa9fd0a",
		"SINT2K/ordering/seed1":  "e546820b36fbad11",
		"SINT2K/ordering/seed2":  "8f8ac5f3f6d95344",
		"SINT2K/multicore/seed1": "81f4f9f8a0d6d257",
		"SINT2K/multicore/seed2": "c0cdeda67c3a02cb",
		"WEB/default/seed1":      "7eea1f252ebc71ec",
		"WEB/default/seed2":      "5f6fd23068bd3f3d",
		"WEB/ordering/seed1":     "0c54f83103c912aa",
		"WEB/ordering/seed2":     "0866220c4fc40e2c",
		"WEB/multicore/seed1":    "085868b8e1bcdeb5",
		"WEB/multicore/seed2":    "9d8451af0c0b7eff",
		"MM/default/seed1":       "e003c36251e0f837",
		"MM/default/seed2":       "eb8f46cfb4728dc5",
		"MM/ordering/seed1":      "ac51bdd2b0c48b6c",
		"MM/ordering/seed2":      "76a0f27a66524993",
		"MM/multicore/seed1":     "ab9d0f3c39fdafba",
		"MM/multicore/seed2":     "e6327ba898059886",
		"PROD/default/seed1":     "8ce4101b36c98827",
		"PROD/default/seed2":     "0bec810d942f57dd",
		"PROD/ordering/seed1":    "bec4ca024558ada8",
		"PROD/ordering/seed2":    "63afcb3d5bf3d0eb",
		"PROD/multicore/seed1":   "724450fafec3e025",
		"PROD/multicore/seed2":   "07bc61999145a5cc",
		"SERVER/default/seed1":   "58ae7ada400bf841",
		"SERVER/default/seed2":   "4adef893558a700a",
		"SERVER/ordering/seed1":  "09ce1b4f8861fbec",
		"SERVER/ordering/seed2":  "78c75e7e7bbb391c",
		"SERVER/multicore/seed1": "d02cf9fca2ed7b56",
		"SERVER/multicore/seed2": "e4ac696a5ae741dc",
		"WS/default/seed1":       "bb2f15a67b46eb81",
		"WS/default/seed2":       "04e243abb73a2d85",
		"WS/ordering/seed1":      "82cef357c28edeba",
		"WS/ordering/seed2":      "b45a56622fdf4c6a",
		"WS/multicore/seed1":     "e3b260cdb5ae0241",
		"WS/multicore/seed2":     "d6ece4c068819af4",
	}
	for _, s := range AllSuites() {
		for _, v := range goldenVariants {
			for _, seed := range []uint64{1, 2} {
				key := fmt.Sprintf("%v/%s/seed%d", s, v.name, seed)
				p := ProfileFor(s)
				v.apply(&p)
				if got := streamDigest(t, NewGenerator(p, seed), goldenStreamUops); got != want[key] {
					t.Errorf("%q: digest %q, want %q", key, got, want[key])
				}
			}
		}
	}
}

// TestJoinChainLongTieBreak fills the live chain set with r3 and r7 tied
// for the earliest expiry and roots a long chain at a new register: the
// displaced chain must be r3, the lower register, on every fresh
// generator. Picking among tied chains in map iteration order made the
// victim vary from run to run.
func TestJoinChainLongTieBreak(t *testing.T) {
	for i := 0; i < 50; i++ {
		g := NewGenerator(ProfileFor(SINT2K), uint64(i+1))
		g.seq = 1000
		for _, r := range []int8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
			g.live |= regBit(r)
			g.taint |= regBit(r)
			g.chainExp[r] = 2000 + uint64(r)
		}
		g.chainExp[3], g.chainExp[7] = 1500, 1500
		g.joinChainLong(20)
		if g.live&regBit(3) != 0 || g.live&regBit(7) == 0 {
			t.Fatalf("generator %d: live set %#x after displacement, want r3 out and r7 kept", i, g.live)
		}
		if g.live&regBit(20) == 0 || g.chainExp[20] != 1000+6*uint64(g.prof.ChainDecay) {
			t.Fatalf("generator %d: long chain not rooted at r20 (live %#x, exp %d)", i, g.live, g.chainExp[20])
		}
	}
}

// BenchmarkGeneratorNext measures one micro-op of each suite's stream, the
// trace generator's share of every simulated cycle.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, s := range AllSuites() {
		b.Run(s.String(), func(b *testing.B) {
			g := NewGenerator(ProfileFor(s), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}
