package lsq

import "testing"

// The repo-wide squash convention: SquashYoungerThan(seq) removes entries
// with Seq strictly greater than seq; seq itself survives. A caller
// restarting at a checkpoint whose first sequence number is fromSeq passes
// fromSeq-1. These boundary tests pin the convention on every structure —
// an off-by-one in any of them forwards stale data silently.

const boundary = 10

func seqsKept(t *testing.T, name string, present func(seq uint64) bool) {
	t.Helper()
	for _, tc := range []struct {
		seq  uint64
		want bool
	}{{9, true}, {10, true}, {11, false}} {
		if got := present(tc.seq); got != tc.want {
			t.Errorf("%s: after SquashYoungerThan(%d), seq %d present=%v, want %v",
				name, boundary, tc.seq, got, tc.want)
		}
	}
}

func TestSquashBoundaryStoreQueue(t *testing.T) {
	q := NewStoreQueue(8, nil)
	for _, s := range []uint64{9, 10, 11} {
		q.Alloc(StoreEntry{Seq: s})
	}
	q.SquashYoungerThan(boundary)
	seqsKept(t, "StoreQueue", func(seq uint64) bool {
		for i := 0; i < q.Len(); i++ {
			if q.at(i).Seq == seq {
				return true
			}
		}
		return false
	})
}

func TestSquashBoundarySRL(t *testing.T) {
	s := NewSRL(8, nil)
	for i, seq := range []uint64{9, 10, 11} {
		s.Alloc(StoreEntry{Seq: seq, SRLIndex: 100 + uint64(i), AddrKnown: true, DataReady: true})
	}
	s.SquashYoungerThan(boundary)
	seqsKept(t, "SRL", func(seq uint64) bool {
		found := false
		s.ForEach(func(i int, e *StoreEntry) {
			if e.Seq == seq {
				found = true
			}
		})
		return found
	})
}

func TestSquashBoundaryFC(t *testing.T) {
	f := NewFC(16, 4)
	// Distinct words so each store owns an entry.
	f.Update(0x100, 100, 9)
	f.Update(0x200, 101, 10)
	f.Update(0x300, 102, 11)
	f.SquashYoungerThan(boundary)
	seqsKept(t, "FC", func(seq uint64) bool {
		addr := map[uint64]uint64{9: 0x100, 10: 0x200, 11: 0x300}[seq]
		// Lookup from a far-future load: any surviving entry is eligible.
		_, ok := f.Lookup(addr, 1<<40)
		return ok
	})
}

func TestSquashBoundaryLoadBuffer(t *testing.T) {
	b := NewLoadBuffer(16, 4, OverflowViolate, 0)
	for _, s := range []uint64{9, 10, 11} {
		b.Insert(LoadEntry{Seq: s, Addr: s * 0x100, FwdStoreID: NoFwd})
	}
	if n := b.SquashYoungerThan(boundary); n != 1 {
		t.Fatalf("removed %d entries, want 1", n)
	}
	seqsKept(t, "LoadBuffer", func(seq uint64) bool {
		found := false
		b.ForEach(func(e *LoadEntry) {
			if e.Seq == seq {
				found = true
			}
		})
		return found
	})
}

func TestSquashBoundaryOrderTracker(t *testing.T) {
	tr := NewOrderTracker(64)
	for _, s := range []uint64{9, 10, 11} {
		tr.Add(s)
	}
	tr.SquashYoungerThan(boundary)
	seqsKept(t, "OrderTracker", func(seq uint64) bool { return tr.has(seq) })
	// The surviving loads still gate the SRL head; the squashed one does not.
	if tr.AllLoadsOlderThanDone(11) {
		t.Fatal("loads 9 and 10 must still gate a head at seq 11")
	}
	tr.Remove(9)
	tr.Remove(10)
	if !tr.AllLoadsOlderThanDone(12) {
		t.Fatal("squashed load 11 must not gate the head")
	}
}

// TestFCUpdateAgeGuard pins the out-of-order late-fill fix: an older store
// whose data arrives late must not clobber a younger store's FC entry for
// the same word.
func TestFCUpdateAgeGuard(t *testing.T) {
	f := NewFC(16, 4)
	f.Update(0x100, 120, 20) // younger store, seq 20
	f.Update(0x100, 110, 10) // older store fills late, seq 10
	hit, ok := f.Lookup(0x100, 30)
	if !ok || hit.SRLIndex != 120 || hit.StoreSeq != 20 {
		t.Fatalf("lookup = %+v ok=%v, want younger store (idx 120, seq 20)", hit, ok)
	}
	// A genuinely younger update still replaces the entry.
	f.Update(0x100, 130, 25)
	hit, ok = f.Lookup(0x100, 30)
	if !ok || hit.SRLIndex != 130 {
		t.Fatalf("lookup = %+v ok=%v, want idx 130", hit, ok)
	}
}

// TestLCFLastIndexMonotone pins the companion fix in the LCF: a late
// increment from an older store must not move lastIndex backwards (indexed
// forwarding assumes lastIndex names the youngest counted store), but the
// 0→1 transition must replace a stale index unconditionally.
func TestLCFLastIndexMonotone(t *testing.T) {
	f := NewLCF(64, HashLAB, 6)
	f.inc(0x100, 120) // younger store first
	f.inc(0x100, 110) // older store counts late
	if may, last := f.Peek(0x100); !may || last != 120 {
		t.Fatalf("Peek = %v,%d, want true,120", may, last)
	}
	// Drain both; then a fresh store with a smaller index (post-squash
	// replay) must take over on the 0→1 transition.
	f.dec(0x100)
	f.dec(0x100)
	f.inc(0x100, 50)
	if may, last := f.Peek(0x100); !may || last != 50 {
		t.Fatalf("Peek after reuse = %v,%d, want true,50", may, last)
	}
}

// TestFCFaultInvertAge verifies the fault-injection knob used by the
// checker's seeded-bug test: with the inversion on, only a younger
// producer forwards.
func TestFCFaultInvertAge(t *testing.T) {
	f := NewFC(16, 4)
	f.Update(0x100, 110, 10)
	if _, ok := f.Lookup(0x100, 20); !ok {
		t.Fatal("healthy lookup should forward from the older store")
	}
	f.FaultInvertAge = true
	if _, ok := f.Lookup(0x100, 20); ok {
		t.Fatal("inverted lookup must reject the older store")
	}
	if hit, ok := f.Lookup(0x100, 5); !ok || hit.StoreSeq != 10 {
		t.Fatal("inverted lookup must forward from a younger store")
	}
}
