package lsq

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"srlproc/internal/xrand"
)

func srlEntry(seq, idx uint64, ready bool) StoreEntry {
	return StoreEntry{Seq: seq, Addr: seq * 0x40, Size: 8, AddrKnown: ready, DataReady: ready, SRLIndex: idx}
}

func TestSRLFIFOOrder(t *testing.T) {
	s := NewSRL(8, nil)
	for i := uint64(0); i < 5; i++ {
		if !s.Alloc(srlEntry(i+1, 10+i, true)) {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if s.HeadIndex() != 10 || s.Len() != 5 {
		t.Fatalf("head=%d len=%d", s.HeadIndex(), s.Len())
	}
	for i := uint64(0); i < 5; i++ {
		e, ok := s.PopHead()
		if !ok || e.SRLIndex != 10+i {
			t.Fatalf("pop %d: %v %v", i, e.SRLIndex, ok)
		}
	}
	if !s.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestSRLBaseResetsWhenEmpty(t *testing.T) {
	s := NewSRL(4, nil)
	s.Alloc(srlEntry(1, 5, true))
	s.PopHead()
	// After draining, the next occupancy run starts at a fresh identifier.
	if !s.Alloc(srlEntry(9, 42, true)) {
		t.Fatal("alloc after drain failed")
	}
	if s.HeadIndex() != 42 {
		t.Fatalf("base did not reset: %d", s.HeadIndex())
	}
}

func TestSRLOutOfOrderAllocPanics(t *testing.T) {
	s := NewSRL(4, nil)
	s.Alloc(srlEntry(1, 10, true))
	defer func() {
		if recover() == nil {
			t.Fatal("identifier gap did not panic")
		}
	}()
	s.Alloc(srlEntry(2, 12, true)) // gap: 11 skipped
}

func TestSRLFull(t *testing.T) {
	s := NewSRL(2, nil)
	s.Alloc(srlEntry(1, 0, true))
	s.Alloc(srlEntry(2, 1, true))
	if s.Alloc(srlEntry(3, 2, true)) {
		t.Fatal("alloc on full SRL succeeded")
	}
}

func TestSRLFill(t *testing.T) {
	s := NewSRL(4, nil)
	s.Alloc(srlEntry(1, 0, true))
	e := srlEntry(2, 1, false) // reserved slot of a miss-dependent store
	s.Alloc(e)
	if s.Head().DataReady != true {
		t.Fatal("independent head not ready")
	}
	if got := s.Get(1); got == nil || got.DataReady {
		t.Fatal("reserved slot state wrong")
	}
	if !s.Fill(1, 0xBEEF, 8) {
		t.Fatal("fill failed")
	}
	got := s.Get(1)
	if !got.DataReady || got.Addr != 0xBEEF || !got.AddrKnown {
		t.Fatalf("fill did not apply: %+v", got)
	}
	if s.Fill(99, 0, 8) {
		t.Fatal("fill of a non-resident index succeeded")
	}
}

func TestSRLGetBounds(t *testing.T) {
	s := NewSRL(4, nil)
	s.Alloc(srlEntry(1, 7, true))
	if s.Get(6) != nil || s.Get(8) != nil {
		t.Fatal("out-of-range Get returned an entry")
	}
	if s.Get(7) == nil {
		t.Fatal("resident index missed")
	}
}

func TestSRLSquash(t *testing.T) {
	s := NewSRL(8, nil)
	for i := uint64(0); i < 5; i++ {
		s.Alloc(srlEntry(i+1, i, true))
	}
	s.SquashYoungerThan(2)
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	// Identifier continuity resumes where the squash cut.
	if !s.Alloc(srlEntry(3, 2, true)) {
		t.Fatal("post-squash realloc failed")
	}
}

// Property: after any valid sequence of allocs/pops/squashes, entries pop
// in strictly ascending identifier order and Get(idx) agrees with the
// entry's own identifier.
func TestSRLOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewSRL(32, nil)
		next := uint64(100)
		var lastPopped uint64
		seq := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // alloc
				seq++
				if !s.Full() {
					s.Alloc(StoreEntry{Seq: seq, Addr: seq * 8, AddrKnown: true, DataReady: true, SRLIndex: next})
					next++
				}
			case 2: // pop
				if e, ok := s.PopHead(); ok {
					if lastPopped != 0 && e.SRLIndex <= lastPopped {
						return false
					}
					lastPopped = e.SRLIndex
				}
			case 3: // indexed get consistency
				if s.Len() > 0 {
					idx := s.HeadIndex() + uint64(int(op)%s.Len())
					if e := s.Get(idx); e == nil || e.SRLIndex != idx {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// srlSnapshot is everything a refused Alloc must leave untouched: the
// log's occupancy, base and entries, and the filter's counters.
type srlSnapshot struct {
	len     int
	base    uint64
	entries []StoreEntry
	counts  []uint8
	sticky  []bool
}

func snapshotSRL(s *SRL) srlSnapshot {
	snap := srlSnapshot{len: s.Len(), base: s.HeadIndex(),
		counts: append([]uint8(nil), s.lcf.count...), sticky: append([]bool(nil), s.lcf.sticky...)}
	s.ForEach(func(_ int, e *StoreEntry) { snap.entries = append(snap.entries, *e) })
	return snap
}

// TestSRLKeepsLCFExact drives random ready and reserved Alloc, Fill,
// PopHead and SquashYoungerThan traffic through an SRL that owns its LCF,
// at the 2-bit and the paper's 6-bit counter width. After every operation
// each non-sticky counter must equal the number of counted residents that
// hash to it, a counter with counted residents must be non-zero, every
// filled entry must be counted, a refused Alloc must leave the log and the
// filter unchanged, and an empty log must have reset the filter.
func TestSRLKeepsLCFExact(t *testing.T) {
	cases := map[string]int{}
	// The logs hold more stores than a counter can count, so both widths
	// saturate before the log fills.
	for _, shape := range []struct {
		bits     uint
		capacity int
	}{{2, 24}, {6, 128}} {
		bits := shape.bits
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed)
			lcf := NewLCF(16, HashLAB, bits)
			s := NewSRL(shape.capacity, lcf)
			// Four of the five words share counter 0, so counters saturate.
			words := []uint64{0, 16, 32, 48, 1}
			seq, id := uint64(0), uint64(1)
			var unfilled []uint64 // reserved, not yet filled SRL indices
			count := func(what string) { cases[fmt.Sprintf("%d-bit: %s", bits, what)]++ }
			for step := 0; step < 4000; step++ {
				// Alternate phases that fill the log and phases that drain
				// it, so it reaches both full and empty: the cut-offs of
				// alloc, fill and pop (the rest squashes).
				cut := [3]int{70, 92, 97}
				if (step/300)%2 == 1 {
					cut = [3]int{20, 40, 90}
				}
				var op string
				switch k := rng.Intn(100); {
				case k < cut[0]:
					ready := rng.Bool(0.7)
					op = "alloc"
					seq++
					e := StoreEntry{Seq: seq, SRLIndex: id, DataReady: ready, AddrKnown: ready,
						Addr: 8*words[rng.Intn(len(words))] + rng.Uint64n(8), Size: 8}
					before := snapshotSRL(s)
					saturated := lcf.count[lcf.idx(e.Addr)] == lcf.maxCount
					if !s.Alloc(e) {
						if after := snapshotSRL(s); !reflect.DeepEqual(before, after) {
							t.Fatalf("%d-bit seed %d step %d: refused Alloc changed the log: %+v -> %+v", bits, seed, step, before, after)
						}
						switch {
						case before.len == s.Cap():
							count("refused alloc into a full log")
						case ready && saturated:
							count("refused alloc on a saturated counter")
						default:
							t.Fatalf("%d-bit seed %d step %d: Alloc refused with room and a free counter", bits, seed, step)
						}
						continue
					}
					id++
					if ready {
						count("ready alloc")
					} else {
						count("reserved alloc")
						unfilled = append(unfilled, e.SRLIndex)
					}
				case k < cut[1]:
					op = "fill"
					if len(unfilled) == 0 {
						continue
					}
					j := rng.Intn(len(unfilled))
					idx := unfilled[j]
					unfilled = append(unfilled[:j], unfilled[j+1:]...)
					a := 8*words[rng.Intn(len(words))] + rng.Uint64n(8)
					if lcf.count[lcf.idx(a)] == lcf.maxCount {
						count("fill onto a saturated counter")
					}
					if !s.Fill(idx, a, 8) {
						t.Fatalf("%d-bit seed %d step %d: Fill(%d) of a resident slot failed", bits, seed, step, idx)
					}
					count("fill")
				case k < cut[2]:
					op = "pop"
					e, ok := s.PopHead()
					if !ok {
						continue
					}
					if e.LCFCounted {
						count("pop a counted entry")
					}
					if s.Empty() {
						count("pop empties the log")
					}
				default:
					op = "squash"
					if s.Empty() {
						continue
					}
					keep := seq - rng.Uint64n(min(seq, 8)+1)
					if rng.Bool(0.1) {
						keep = 0
					}
					counted := false
					s.ForEach(func(_ int, e *StoreEntry) { counted = counted || (e.Seq > keep && e.LCFCounted) })
					s.SquashYoungerThan(keep)
					if counted {
						count("squash a counted entry")
					}
					if s.Empty() {
						count("squash empties the log")
					}
					seq, id = keep, s.HeadIndex()+uint64(s.Len())
					if s.Empty() {
						id = seq + 1000 // a fresh occupancy run may start anywhere
					}
				}
				// Drop reservations the pop or squash removed.
				live := unfilled[:0]
				for _, idx := range unfilled {
					if e := s.Get(idx); e != nil && !e.DataReady {
						live = append(live, idx)
					}
				}
				unfilled = live

				where := fmt.Sprintf("%d-bit seed %d step %d (%s)", bits, seed, step, op)
				residents := make([]uint8, lcf.Entries())
				s.ForEach(func(_ int, e *StoreEntry) {
					if e.DataReady != e.LCFCounted {
						t.Fatalf("%s: entry %+v: data ready %v but counted %v", where, *e, e.DataReady, e.LCFCounted)
					}
					if e.LCFCounted {
						residents[lcf.idx(e.Addr)]++
					}
				})
				for i, n := range residents {
					switch {
					case lcf.sticky[i]:
						if lcf.count[i] != lcf.maxCount {
							t.Fatalf("%s: sticky counter %d at %d, below its maximum", where, i, lcf.count[i])
						}
						count("sticky counter held")
					case lcf.count[i] != n:
						t.Fatalf("%s: counter %d is %d, %d counted residents hash to it", where, i, lcf.count[i], n)
					}
				}
				if s.Empty() && lcf.dirty {
					t.Fatalf("%s: the log is empty but the filter was not reset", where)
				}
			}
		}
	}
	for _, bits := range []uint{2, 6} {
		for _, c := range []string{"ready alloc", "reserved alloc", "fill", "refused alloc into a full log",
			"refused alloc on a saturated counter", "fill onto a saturated counter", "sticky counter held",
			"pop a counted entry", "pop empties the log", "squash a counted entry", "squash empties the log"} {
			if cases[fmt.Sprintf("%d-bit: %s", bits, c)] == 0 {
				t.Errorf("case never exercised: %d-bit: %s", bits, c)
			}
		}
	}
	t.Logf("cases: %v", cases)
}
