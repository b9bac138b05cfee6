package lsq

import "testing"

func mkEntry(seq uint64, addr uint64, ready bool) StoreEntry {
	return StoreEntry{Seq: seq, Addr: addr, Size: 8, AddrKnown: true, DataReady: ready, SRLIndex: seq}
}

func TestStoreQueueFIFO(t *testing.T) {
	q := NewStoreQueue("t", 4, 3)
	for i := uint64(1); i <= 4; i++ {
		if _, ok := q.Alloc(mkEntry(i, i*8, true)); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := q.Alloc(mkEntry(5, 40, true)); ok {
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
	q := NewStoreQueue("t", 8, 3)
	q.Alloc(mkEntry(1, 0x100, true))
	q.Alloc(mkEntry(2, 0x100, true)) // younger store, same word
	q.Alloc(mkEntry(3, 0x200, true))
	r := q.Search(0x100, 8, 10)
	if !r.Hit || r.Entry.Seq != 2 {
		t.Fatalf("search hit=%v seq=%v; want youngest older (2)", r.Hit, r.Entry)
	}
	// A load between the two stores must see only the first.
	r = q.Search(0x100, 8, 2)
	if !r.Hit || r.Entry.Seq != 1 {
		t.Fatalf("age-bounded search got %+v", r.Entry)
	}
	// A load older than both must miss.
	if r := q.Search(0x100, 8, 1); r.Hit {
		t.Fatal("load forwarded from a younger store")
	}
}

func TestSearchUnknownAddresses(t *testing.T) {
	q := NewStoreQueue("t", 8, 3)
	e := mkEntry(1, 0, false)
	e.AddrKnown = false
	q.Alloc(e)
	q.Alloc(mkEntry(2, 0x100, true))
	r := q.Search(0x300, 8, 10)
	if r.Hit {
		t.Fatal("spurious hit")
	}
	if !r.UnknownOlder || len(r.UnknownSeqs) != 1 || r.UnknownSeqs[0] != 1 {
		t.Fatalf("unknown screening: %+v", r)
	}
}

func TestSearchPoisonedMatch(t *testing.T) {
	q := NewStoreQueue("t", 8, 3)
	q.Alloc(mkEntry(1, 0x100, false)) // address known, data not ready
	r := q.Search(0x100, 8, 5)
	if !r.Hit || !r.PoisonedMatch {
		t.Fatalf("poisoned match not flagged: %+v", r)
	}
}

func TestWordGranularityMatch(t *testing.T) {
	q := NewStoreQueue("t", 8, 3)
	q.Alloc(mkEntry(1, 0x100, true))
	if r := q.Search(0x104, 4, 5); !r.Hit {
		t.Fatal("same-word different-offset access missed")
	}
	if r := q.Search(0x108, 8, 5); r.Hit {
		t.Fatal("different word matched")
	}
}

func TestLocate(t *testing.T) {
	q := NewStoreQueue("t", 4, 3)
	slot, _ := q.Alloc(mkEntry(7, 0x100, false))
	if e := q.Locate(slot, 7); e == nil || e.Seq != 7 {
		t.Fatal("locate failed")
	}
	if q.Locate(slot, 8) != nil {
		t.Fatal("locate matched wrong seq")
	}
	q.PopHead()
	if q.Locate(slot, 7) != nil {
		t.Fatal("locate found a popped entry")
	}
}

func TestSquashYoungerThan(t *testing.T) {
	q := NewStoreQueue("t", 8, 3)
	for i := uint64(1); i <= 5; i++ {
		q.Alloc(mkEntry(i, i*0x100, true))
	}
	removed := q.SquashYoungerThan(3)
	if len(removed) != 2 {
		t.Fatalf("removed %d", len(removed))
	}
	if removed[0].Seq != 5 || removed[1].Seq != 4 {
		t.Fatalf("squash order %v %v", removed[0].Seq, removed[1].Seq)
	}
	if q.Len() != 3 {
		t.Fatalf("len %d", q.Len())
	}
	// Re-allocation after squash reuses the freed space.
	if _, ok := q.Alloc(mkEntry(4, 0x400, true)); !ok {
		t.Fatal("realloc after squash failed")
	}
}

func TestCAMActivityCounted(t *testing.T) {
	q := NewStoreQueue("t", 8, 3)
	q.Alloc(mkEntry(1, 0x100, true))
	q.Alloc(mkEntry(2, 0x200, true))
	q.Search(0x100, 8, 10)
	if q.Searches() != 1 {
		t.Fatalf("searches %d", q.Searches())
	}
	if q.CamEntryOps() != 2 {
		t.Fatalf("entry ops %d (every resident entry's comparator fires)", q.CamEntryOps())
	}
	if q.Forwards() != 1 {
		t.Fatalf("forwards %d", q.Forwards())
	}
}

func TestMTB(t *testing.T) {
	m := NewMTB(64)
	if m.MightContain(0x100) {
		t.Fatal("empty filter matched")
	}
	m.Add(0x100)
	m.Add(0x100)
	if !m.MightContain(0x100) {
		t.Fatal("added address missed")
	}
	m.Remove(0x100)
	if !m.MightContain(0x100) {
		t.Fatal("count-2 address dropped after one removal")
	}
	m.Remove(0x100)
	if m.MightContain(0x100) {
		t.Fatal("fully removed address still matches")
	}
	if m.Probes() != 4 || m.Maybes() != 2 {
		t.Fatalf("activity %d/%d", m.Probes(), m.Maybes())
	}
	// Underflow is clamped.
	m.Remove(0x100)
	if m.MightContain(0x100) {
		t.Fatal("underflow corrupted the filter")
	}
}

func TestMTBAliasing(t *testing.T) {
	m := NewMTB(8)
	m.Add(0x100)
	aliased := uint64(0x100 + 8*8) // same counter (word-granular index)
	if !m.MightContain(aliased) {
		t.Fatal("aliasing should produce a (false-positive) match")
	}
}
