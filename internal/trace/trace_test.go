package trace

import (
	"math"
	"math/bits"
	"testing"

	"srlproc/internal/isa"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != int(NumSuites) {
		t.Fatalf("%d profiles for %d suites", len(ps), NumSuites)
	}
	totalBench := 0
	for _, s := range AllSuites() {
		p := ps[s]
		if p.Suite != s || p.Name == "" || p.NumBench <= 0 {
			t.Fatalf("profile %v malformed: %+v", s, p)
		}
		if p.LoadFrac+p.StoreFrac+p.BranchFrac >= 1 {
			t.Fatalf("%v: op mix exceeds 1", s)
		}
		totalBench += p.NumBench
	}
	// Table 2's suite sizes: 13+10+10+14+7+7+13 = 74 benchmarks.
	if totalBench != 74 {
		t.Fatalf("total benchmarks %d, Table 2 says 74", totalBench)
	}
}

func TestSuiteStrings(t *testing.T) {
	names := map[string]bool{}
	for _, s := range AllSuites() {
		names[s.String()] = true
	}
	for _, want := range []string{"SFP2K", "SINT2K", "WEB", "MM", "PROD", "SERVER", "WS"} {
		if !names[want] {
			t.Fatalf("missing suite name %s", want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(ProfileFor(SINT2K), 7)
	b := NewGenerator(ProfileFor(SINT2K), 7)
	for i := 0; i < 5000; i++ {
		ua, ub := a.Next(), b.Next()
		if ua != ub {
			t.Fatalf("divergence at %d: %v vs %v", i, ua, ub)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(ProfileFor(SINT2K), 1)
	b := NewGenerator(ProfileFor(SINT2K), 2)
	diff := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr != b.Next().Addr {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical address streams")
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	for _, s := range AllSuites() {
		p := ProfileFor(s)
		g := NewGenerator(p, 1)
		n := 100_000
		var loads, stores, branches int
		for i := 0; i < n; i++ {
			switch g.Next().Class {
			case isa.Load:
				loads++
			case isa.Store:
				stores++
			case isa.Branch:
				branches++
			}
		}
		check := func(name string, got int, want float64) {
			frac := float64(got) / float64(n)
			if math.Abs(frac-want) > 0.02 {
				t.Errorf("%v %s fraction %.3f, profile %.3f", s, name, frac, want)
			}
		}
		check("load", loads, p.LoadFrac)
		check("store", stores, p.StoreFrac)
		check("branch", branches, p.BranchFrac)
	}
}

func TestSequenceNumbersDense(t *testing.T) {
	g := NewGenerator(ProfileFor(WEB), 3)
	for i := uint64(1); i <= 10_000; i++ {
		if u := g.Next(); u.Seq != i {
			t.Fatalf("seq %d at position %d", u.Seq, i)
		}
	}
}

func TestMemoryOperandsWellFormed(t *testing.T) {
	g := NewGenerator(ProfileFor(SFP2K), 5)
	for i := 0; i < 50_000; i++ {
		u := g.Next()
		switch u.Class {
		case isa.Load:
			if u.Addr == 0 || u.Size == 0 || u.Dst == isa.NoReg {
				t.Fatalf("malformed load %v", u.String())
			}
		case isa.Store:
			if u.Addr == 0 || u.Size == 0 || u.Src2 == isa.NoReg || u.Dst != isa.NoReg {
				t.Fatalf("malformed store %v", u.String())
			}
		}
		if u.Src1 >= isa.NumArchRegs || u.Src2 >= isa.NumArchRegs || u.Dst >= isa.NumArchRegs {
			t.Fatalf("register out of range: %v", u.String())
		}
	}
}

func TestForwardingLoadsReferenceRealStores(t *testing.T) {
	g := NewGenerator(ProfileFor(PROD), 9)
	stores := map[uint64]uint64{} // seq -> addr
	fwd := 0
	n := 60_000
	for i := 0; i < n; i++ {
		u := g.Next()
		if u.Class == isa.Store {
			stores[u.Seq] = u.Addr
		}
		if u.Class == isa.Load && u.MemSeq != 0 {
			fwd++
			addr, ok := stores[u.MemSeq]
			if !ok {
				t.Fatalf("load %d forwards from unknown store %d", u.Seq, u.MemSeq)
			}
			if addr != u.Addr {
				t.Fatalf("load %d address %#x != store address %#x", u.Seq, u.Addr, addr)
			}
		}
	}
	// PROD's forwarding fraction is 0.33 of loads ~ 0.28 of uops.
	frac := float64(fwd) / (float64(n) * ProfileFor(PROD).LoadFrac)
	if frac < 0.2 || frac > 0.45 {
		t.Fatalf("forwarding fraction %.2f implausible", frac)
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	g := NewGenerator(ProfileFor(MM), 11)
	for i := 0; i < 30_000; i++ {
		u := g.Next()
		if u.Class != isa.Load && u.Class != isa.Store {
			continue
		}
		a := u.Addr
		ok := (a >= hotBase && a < hotBase+1<<24) ||
			(a >= heapBase && a < streamBase) ||
			(a >= streamBase && a < streamBase+1<<32)
		if !ok {
			t.Fatalf("address %#x outside all regions", a)
		}
	}
}

func TestPhaseSweepTouchesFreshLines(t *testing.T) {
	p := ProfileFor(SINT2K)
	g := NewGenerator(p, 13)
	seen := map[uint64]bool{}
	heapLines := func(n int) map[uint64]bool {
		lines := map[uint64]bool{}
		for i := 0; i < n; i++ {
			u := g.Next()
			if (u.Class == isa.Load || u.Class == isa.Store) && u.Addr >= heapBase && u.Addr < streamBase {
				lines[u.Addr/isa.CacheLineSize] = true
			}
		}
		return lines
	}
	// First phase.
	for l := range heapLines(p.PhaseUops) {
		seen[l] = true
	}
	// Second phase must touch a mostly-disjoint window.
	fresh, overlap := 0, 0
	for l := range heapLines(p.PhaseUops) {
		if seen[l] {
			overlap++
		} else {
			fresh++
		}
	}
	if fresh < p.PhaseLines/2 {
		t.Fatalf("second phase touched only %d fresh lines (window %d)", fresh, p.PhaseLines)
	}
}

func TestChainSetBounded(t *testing.T) {
	g := NewGenerator(ProfileFor(SFP2K), 17)
	for i := 0; i < 50_000; i++ {
		g.Next()
		if n := bits.OnesCount32(g.live); n > maxLiveChain {
			t.Fatalf("live chain set grew to %d", n)
		}
		if g.live&^g.taint != 0 {
			t.Fatalf("live chains %#x not all tainted (%#x)", g.live, g.taint)
		}
	}
}

func TestBranchOutcomesDeterministicPerSeed(t *testing.T) {
	mk := func() []bool {
		g := NewGenerator(ProfileFor(SERVER), 21)
		var out []bool
		for i := 0; i < 20_000; i++ {
			if u := g.Next(); u.Class == isa.Branch {
				out = append(out, u.Taken)
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("branch outcome divergence at %d", i)
		}
	}
}

func TestProfileForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown suite did not panic")
		}
	}()
	ProfileFor(Suite(99))
}
