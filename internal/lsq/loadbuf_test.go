package lsq

import (
	"testing"
	"testing/quick"

	"srlproc/internal/xrand"
)

func ld(seq, addr, nearest, fwd uint64, ckpt int) LoadEntry {
	return LoadEntry{Seq: seq, PC: seq * 4, Addr: addr, NearestStoreID: nearest, FwdStoreID: fwd, Ckpt: ckpt}
}

func TestStoreCheckDetectsMissedForward(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	// Load (nearest store id 10) read memory; store id 8 (older) to the
	// same word later resolves: the load should have seen it — violation.
	b.Insert(ld(100, 0x100, 10, NoFwd, 3))
	v, found := b.StoreCheck(0x100, 8)
	if !found || v.LoadSeq != 100 || v.Ckpt != 3 {
		t.Fatalf("violation not detected: %+v %v", v, found)
	}
}

func TestStoreCheckForwardedFromThisStore(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(100, 0x100, 10, 8, 3)) // forwarded from store 8
	if _, found := b.StoreCheck(0x100, 8); found {
		t.Fatal("correctly-forwarded load flagged")
	}
}

func TestStoreCheckForwardedFromYounger(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(100, 0x100, 10, 9, 3)) // forwarded from store 9 (younger than 8)
	if _, found := b.StoreCheck(0x100, 8); found {
		t.Fatal("load shadowed by a younger store was flagged")
	}
}

func TestStoreCheckLoadOlderThanStore(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(100, 0x100, 5, NoFwd, 3)) // nearest store 5 < store id 8
	if _, found := b.StoreCheck(0x100, 8); found {
		t.Fatal("load older than the store was flagged")
	}
}

func TestStoreCheckReturnsOldestViolator(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(200, 0x100, 10, NoFwd, 4))
	b.Insert(ld(100, 0x100, 10, NoFwd, 3))
	v, found := b.StoreCheck(0x100, 8)
	if !found || v.LoadSeq != 100 {
		t.Fatalf("oldest violator not chosen: %+v", v)
	}
}

func TestStoreCheckDifferentWordIgnored(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(100, 0x108, 10, NoFwd, 3))
	if _, found := b.StoreCheck(0x100, 8); found {
		t.Fatal("different word flagged")
	}
}

func TestSnoopCheckAnyMatch(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(100, 0x100, 10, 9, 3))
	v, found := b.SnoopCheck(0x100)
	if !found || v.Ckpt != 3 {
		t.Fatalf("snoop check: %+v %v", v, found)
	}
	if _, found := b.SnoopCheck(0x900); found {
		t.Fatal("snoop matched an absent address")
	}
}

func TestOverflowViolatePolicy(t *testing.T) {
	b := NewLoadBuffer(8, 2, OverflowViolate, 0) // 4 sets, 2-way
	// Fill one set (same word => same set).
	if !b.Insert(ld(1, 0x100, 1, NoFwd, 0)) || !b.Insert(ld(2, 0x100, 1, NoFwd, 0)) {
		t.Fatal("initial inserts failed")
	}
	if b.Insert(ld(3, 0x100, 1, NoFwd, 0)) {
		t.Fatal("overflow insert succeeded under violate policy")
	}
	if b.Overflows() != 1 {
		t.Fatalf("overflows %d", b.Overflows())
	}
}

func TestOverflowVictimPolicy(t *testing.T) {
	b := NewLoadBuffer(8, 2, OverflowVictim, 2)
	b.Insert(ld(1, 0x100, 1, NoFwd, 0))
	b.Insert(ld(2, 0x100, 1, NoFwd, 0))
	if !b.Insert(ld(3, 0x100, 1, NoFwd, 0)) {
		t.Fatal("victim buffer rejected an overflow")
	}
	// Victim entries are still visible to checks.
	if _, found := b.SnoopCheck(0x100); !found {
		t.Fatal("victim entry invisible to snoops")
	}
	b.Insert(ld(4, 0x100, 1, NoFwd, 0))
	if b.Insert(ld(5, 0x100, 1, NoFwd, 0)) {
		t.Fatal("full victim buffer accepted another entry")
	}
}

func TestCommitCkptBulkRemoval(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(1, 0x100, 1, NoFwd, 7))
	b.Insert(ld(2, 0x200, 1, NoFwd, 7))
	b.Insert(ld(3, 0x300, 1, NoFwd, 8))
	if n := b.CommitCkpt(7); n != 2 {
		t.Fatalf("committed %d", n)
	}
	if b.Len() != 1 {
		t.Fatalf("len %d", b.Len())
	}
	if _, found := b.SnoopCheck(0x100); found {
		t.Fatal("committed load still snoopable")
	}
}

func TestSquashYoungerThanLoads(t *testing.T) {
	b := NewLoadBuffer(64, 4, OverflowViolate, 0)
	b.Insert(ld(10, 0x100, 1, NoFwd, 0))
	b.Insert(ld(20, 0x200, 1, NoFwd, 0))
	if n := b.SquashYoungerThan(15); n != 1 {
		t.Fatalf("squashed %d", n)
	}
	if _, found := b.SnoopCheck(0x200); found {
		t.Fatal("squashed load still present")
	}
}

func TestFullyAssociativeMode(t *testing.T) {
	// assoc >= capacity degrades to one fully associative set (the
	// conventional load queue of the baseline designs).
	b := NewLoadBuffer(16, 16, OverflowViolate, 0)
	for i := uint64(0); i < 16; i++ {
		if !b.Insert(ld(i+1, 0x100, 1, NoFwd, 0)) {
			t.Fatalf("insert %d failed in fully associative mode", i)
		}
	}
	if b.Insert(ld(99, 0x100, 1, NoFwd, 0)) {
		t.Fatal("capacity exceeded")
	}
}

// Property: StoreCheck agrees with a naive reference model over random
// load/store interleavings.
func TestStoreCheckMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		b := NewLoadBuffer(256, 8, OverflowVictim, 64)
		type rec struct {
			e  LoadEntry
			ok bool
		}
		var loads []rec
		for i := 0; i < 60; i++ {
			e := ld(uint64(i+1), uint64(rng.Intn(8))*8, uint64(rng.Intn(20)), NoFwd, i/10)
			if rng.Bool(0.5) {
				e.FwdStoreID = uint64(rng.Intn(20))
			}
			ok := b.Insert(e)
			loads = append(loads, rec{e, ok})
		}
		for trial := 0; trial < 20; trial++ {
			addr := uint64(rng.Intn(8)) * 8
			storeIdx := uint64(rng.Intn(20))
			// Reference: oldest inserted load with same word, nearest >=
			// storeIdx, and fwd older than storeIdx (or none).
			var want *LoadEntry
			for i := range loads {
				if !loads[i].ok {
					continue
				}
				e := &loads[i].e
				if e.Addr>>3 != addr>>3 || e.NearestStoreID < storeIdx {
					continue
				}
				if e.FwdStoreID != NoFwd && e.FwdStoreID >= storeIdx {
					continue
				}
				if want == nil || e.Seq < want.Seq {
					want = e
				}
			}
			v, found := b.StoreCheck(addr, storeIdx)
			if (want != nil) != found {
				return false
			}
			if found && v.LoadSeq != want.Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
