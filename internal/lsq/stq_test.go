package lsq

import "testing"

func mkEntry(seq uint64, addr uint64, ready bool) StoreEntry {
	return StoreEntry{Seq: seq, Addr: addr, Size: 8, AddrKnown: true, DataReady: ready, SRLIndex: seq}
}

func TestStoreQueueFIFO(t *testing.T) {
	q := NewStoreQueue(4, nil)
	for i := uint64(1); i <= 4; i++ {
		if !q.Alloc(mkEntry(i, i*8, true)) {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if q.Alloc(mkEntry(5, 40, true)) {
		t.Fatal("alloc succeeded on a full queue")
	}
	if !q.Full() || q.Len() != 4 {
		t.Fatal("occupancy wrong")
	}
	for i := uint64(1); i <= 4; i++ {
		e, ok := q.PopHead()
		if !ok || e.Seq != i {
			t.Fatalf("pop %d: got %v/%v", i, e.Seq, ok)
		}
	}
	if _, ok := q.PopHead(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestSearchFindsYoungestOlder(t *testing.T) {
	q := NewStoreQueue(8, nil)
	q.Alloc(mkEntry(1, 0x100, true))
	q.Alloc(mkEntry(2, 0x100, true)) // younger store, same word
	q.Alloc(mkEntry(3, 0x200, true))
	r := q.Search(0x100, 10)
	if !r.Hit || r.Entry.Seq != 2 {
		t.Fatalf("search hit=%v seq=%v; want youngest older (2)", r.Hit, r.Entry)
	}
	// A load between the two stores must see only the first.
	r = q.Search(0x100, 2)
	if !r.Hit || r.Entry.Seq != 1 {
		t.Fatalf("age-bounded search got %+v", r.Entry)
	}
	// A load older than both must miss.
	if r := q.Search(0x100, 1); r.Hit {
		t.Fatal("load forwarded from a younger store")
	}
}

func TestSearchUnknownAddresses(t *testing.T) {
	q := NewStoreQueue(8, nil)
	e := mkEntry(1, 0, false)
	e.AddrKnown = false
	q.Alloc(e)
	q.Alloc(mkEntry(2, 0x100, true))
	r := q.Search(0x300, 10)
	if r.Hit {
		t.Fatal("spurious hit")
	}
	if !r.UnknownOlder || len(r.UnknownSeqs) != 1 || r.UnknownSeqs[0] != 1 {
		t.Fatalf("unknown screening: %+v", r)
	}
}

func TestSearchPoisonedMatch(t *testing.T) {
	q := NewStoreQueue(8, nil)
	q.Alloc(mkEntry(1, 0x100, false)) // address known, data not ready
	r := q.Search(0x100, 5)
	if !r.Hit || !r.PoisonedMatch {
		t.Fatalf("poisoned match not flagged: %+v", r)
	}
}

func TestWordGranularityMatch(t *testing.T) {
	q := NewStoreQueue(8, nil)
	q.Alloc(mkEntry(1, 0x100, true))
	if r := q.Search(0x104, 5); !r.Hit {
		t.Fatal("same-word different-offset access missed")
	}
	if r := q.Search(0x108, 5); r.Hit {
		t.Fatal("different word matched")
	}
}

func TestFind(t *testing.T) {
	q := NewStoreQueue(4, nil)
	q.Alloc(mkEntry(7, 0x100, false))
	q.Alloc(mkEntry(9, 0x200, false))
	for _, seq := range []uint64{7, 9} {
		if e := q.Find(seq); e == nil || e.Seq != seq {
			t.Fatalf("find %d failed", seq)
		}
	}
	for _, seq := range []uint64{6, 8, 10} {
		if q.Find(seq) != nil {
			t.Fatalf("find matched absent seq %d", seq)
		}
	}
	q.PopHead()
	if q.Find(7) != nil {
		t.Fatal("find found a popped entry")
	}
}

func TestSquashYoungerThan(t *testing.T) {
	q := NewStoreQueue(8, nil)
	for i := uint64(1); i <= 5; i++ {
		q.Alloc(mkEntry(i, i*0x100, true))
	}
	q.SquashYoungerThan(3)
	if q.Len() != 3 || q.Find(3) == nil || q.Find(4) != nil {
		t.Fatalf("len %d after squashing seqs 4 and 5", q.Len())
	}
	// Re-allocation after squash reuses the freed space.
	if !q.Alloc(mkEntry(4, 0x400, true)) {
		t.Fatal("realloc after squash failed")
	}
}

func TestCAMActivityCounted(t *testing.T) {
	q := NewStoreQueue(8, nil)
	q.Alloc(mkEntry(1, 0x100, true))
	q.Alloc(mkEntry(2, 0x200, true))
	q.Search(0x100, 10)
	if q.Searches() != 1 {
		t.Fatalf("searches %d", q.Searches())
	}
	if q.CamEntryOps() != 2 {
		t.Fatalf("entry ops %d (every resident entry's comparator fires)", q.CamEntryOps())
	}
}

func TestMTB(t *testing.T) {
	m := NewMTB(64)
	if m.MightContain(0x100) {
		t.Fatal("empty filter matched")
	}
	m.add(0x100)
	m.add(0x100)
	if !m.MightContain(0x100) {
		t.Fatal("added address missed")
	}
	m.remove(0x100)
	if !m.MightContain(0x100) {
		t.Fatal("count-2 address dropped after one removal")
	}
	m.remove(0x100)
	if m.MightContain(0x100) {
		t.Fatal("fully removed address still matches")
	}
	if m.Probes() != 4 || m.Maybes() != 2 {
		t.Fatalf("activity %d/%d", m.Probes(), m.Maybes())
	}
	// Underflow is clamped.
	m.remove(0x100)
	if m.MightContain(0x100) {
		t.Fatal("underflow corrupted the filter")
	}
}

func TestMTBAliasing(t *testing.T) {
	m := NewMTB(8)
	m.add(0x100)
	aliased := uint64(0x100 + 8*8) // same counter (word-granular index)
	if !m.MightContain(aliased) {
		t.Fatal("aliasing should produce a (false-positive) match")
	}
}

// TestMTBCountsEntryResolvedInQueue pins the hierarchical design's gap
// that ownership closes: a store displaced into the L2 STQ before its
// address is known, and resolved there later, must enter the MTB then and
// leave it when it drains or is squashed.
func TestMTBCountsEntryResolvedInQueue(t *testing.T) {
	m := NewMTB(64)
	l2 := NewStoreQueue(8, m)
	for seq := uint64(1); seq <= 2; seq++ {
		l2.Alloc(StoreEntry{Seq: seq, SRLIndex: seq}) // displaced, address unknown
	}
	if m.MightContain(0x100) || m.MightContain(0x200) {
		t.Fatal("an unknown-address entry was counted")
	}
	l2.Resolve(l2.Find(1), 0x100, 8)
	l2.Resolve(l2.Find(2), 0x200, 8)
	if !m.MightContain(0x100) || !m.MightContain(0x200) {
		t.Fatal("an entry resolved in the queue was not counted")
	}
	l2.PopHead()
	if m.MightContain(0x100) {
		t.Fatal("a drained entry is still counted")
	}
	l2.SquashYoungerThan(1)
	if m.MightContain(0x200) {
		t.Fatal("a squashed entry is still counted")
	}
}
