package lsq

import (
	"testing"
	"testing/quick"

	"srlproc/internal/xrand"
)

func TestLCFBasic(t *testing.T) {
	f := NewLCF(256, Hash3PAX, 6)
	if may, _ := f.Probe(0x100); may {
		t.Fatal("empty filter matched")
	}
	if !f.inc(0x100, 42) {
		t.Fatal("inc failed")
	}
	may, idx := f.Probe(0x100)
	if !may || idx != 42 {
		t.Fatalf("probe: may=%v idx=%d", may, idx)
	}
	f.dec(0x100)
	if may, _ := f.Probe(0x100); may {
		t.Fatal("decremented filter still matches")
	}
}

func TestLCFLastIndexTracksLatest(t *testing.T) {
	f := NewLCF(256, HashLAB, 6)
	f.inc(0x100, 1)
	f.inc(0x100, 9)
	if _, idx := f.Probe(0x100); idx != 9 {
		t.Fatalf("last index %d, want the most recent insertion", idx)
	}
}

func TestLCFCounterSaturation(t *testing.T) {
	f := NewLCF(64, HashLAB, 2) // 2-bit counters saturate at 3
	for i := 0; i < 3; i++ {
		if !f.inc(0x100, uint64(i)) {
			t.Fatalf("inc %d refused", i)
		}
	}
	if f.inc(0x100, 99) {
		t.Fatal("saturated counter accepted an increment")
	}
	if f.Overflows() != 1 {
		t.Fatalf("overflows %d", f.Overflows())
	}
}

func TestLCFDecFloorsAtZero(t *testing.T) {
	f := NewLCF(64, HashLAB, 6)
	f.dec(0x100) // nothing to remove
	if may, _ := f.Probe(0x100); may {
		t.Fatal("underflowed counter nonzero")
	}
	f.inc(0x100, 1)
	if may, _ := f.Probe(0x100); !may {
		t.Fatal("counter lost after prior underflow")
	}
}

func TestLCFHashesDiffer(t *testing.T) {
	lab := NewLCF(256, HashLAB, 6)
	pax := NewLCF(256, Hash3PAX, 6)
	// Two addresses that collide under LAB (equal low word-address bits)
	// but not under 3-PAX (the differing middle bits fold into the index).
	a := uint64(0x0000_1000)
	b := uint64(0x0000_5000)
	lab.inc(a, 1)
	pax.inc(a, 1)
	mayLab, _ := lab.Probe(b)
	mayPax, _ := pax.Probe(b)
	if !mayLab {
		t.Fatal("LAB should alias equal-low-bits addresses")
	}
	if mayPax {
		t.Fatal("3-PAX should separate these addresses")
	}
}

func TestLCFPeekCountsNothing(t *testing.T) {
	f := NewLCF(64, HashLAB, 6)
	f.inc(0x100, 5)
	before := f.Probes()
	may, idx := f.Peek(0x100)
	if !may || idx != 5 {
		t.Fatal("peek result wrong")
	}
	if f.Probes() != before {
		t.Fatal("peek counted as a probe")
	}
}

func TestLCFReset(t *testing.T) {
	f := NewLCF(64, HashLAB, 6)
	f.inc(0x100, 1)
	f.reset()
	if may, _ := f.Probe(0x100); may {
		t.Fatal("reset did not clear")
	}
}

// Property: a zero counter is a GUARANTEE of no matching store (no false
// negatives) — the safety property loads rely on. Model the SRL contents as
// a multiset and compare.
func TestLCFNoFalseNegativesProperty(t *testing.T) {
	f := func(seed uint64, opsRaw []uint8) bool {
		lcf := NewLCF(128, Hash3PAX, 6)
		rng := xrand.New(seed)
		resident := map[uint64]int{} // address -> count in SRL
		for _, op := range opsRaw {
			addr := uint64(rng.Intn(64)) * 8
			if op%2 == 0 {
				if lcf.inc(addr, 0) {
					resident[addr]++
				}
			} else if resident[addr] > 0 {
				lcf.dec(addr)
				resident[addr]--
			}
		}
		for addr, n := range resident {
			if n > 0 {
				if may, _ := lcf.Probe(addr); !may {
					return false // false negative: unsafe
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
