package lsq

import "testing"

func TestFCForwardYoungestOlder(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 10, 100) // store seq 100
	fc.Update(0x100, 11, 200) // younger store, same word
	// A load younger than both forwards from the youngest.
	hit, ok := fc.Lookup(0x100, 300)
	if !ok || hit.SRLIndex != 11 {
		t.Fatalf("lookup: %+v ok=%v", hit, ok)
	}
	// A load between the two must NOT forward (the resident entry is
	// younger than it); it falls through to the cache and the load buffer
	// catches any true dependence later.
	if _, ok := fc.Lookup(0x100, 150); ok {
		t.Fatal("forwarded from a younger store")
	}
}

func TestFCMissOnDifferentWord(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 1, 10)
	if _, ok := fc.Lookup(0x108, 100); ok {
		t.Fatal("different word hit")
	}
}

func TestFCEvictionLRU(t *testing.T) {
	fc := NewFC(8, 2) // 4 sets, 2-way
	// Two words in the same set: word addresses congruent mod 4.
	a := uint64(0 * 8)
	b := uint64(4 * 8)
	c := uint64(8 * 8)
	fc.Update(a, 1, 10)
	fc.Update(b, 2, 20)
	fc.Update(c, 3, 30) // evicts a (LRU)
	if _, ok := fc.Lookup(a, 100); ok {
		t.Fatal("evicted entry still forwards")
	}
	if _, ok := fc.Lookup(b, 100); !ok {
		t.Fatal("resident entry lost")
	}
}

func TestFCDiscardAll(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 1, 10)
	fc.DiscardAll()
	if fc.Len() != 0 {
		t.Fatal("discard left entries")
	}
	if _, ok := fc.Lookup(0x100, 100); ok {
		t.Fatal("discarded entry forwards")
	}
}

func TestFCSquash(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 1, 10)
	fc.Update(0x200, 2, 20)
	fc.SquashYoungerThan(15)
	if _, ok := fc.Lookup(0x100, 100); !ok {
		t.Fatal("older entry squashed")
	}
	if _, ok := fc.Lookup(0x200, 100); ok {
		t.Fatal("younger entry survived squash")
	}
}

func TestFCUpdateInPlace(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 1, 10)
	fc.Update(0x100, 5, 50) // same word re-written
	if fc.Len() != 1 {
		t.Fatalf("duplicate entries: %d", fc.Len())
	}
	hit, ok := fc.Lookup(0x100, 100)
	if !ok || hit.SRLIndex != 5 || hit.StoreSeq != 50 {
		t.Fatalf("in-place update lost: %+v", hit)
	}
}

func TestFCActivityCounters(t *testing.T) {
	fc := NewFC(16, 4)
	fc.Update(0x100, 1, 10)
	fc.Lookup(0x100, 100)
	fc.Lookup(0x999, 100)
	if fc.Lookups() != 2 || fc.Hits() != 1 {
		t.Fatalf("counters l=%d h=%d", fc.Lookups(), fc.Hits())
	}
}
