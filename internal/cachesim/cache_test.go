package cachesim

import (
	"testing"
	"unsafe"
)

func newSmall() *Cache { return NewCache("t", 4*64*2, 2, 3) } // 4 sets, 2-way

// TestLineSize pins a cache line's bookkeeping at 16 bytes, its flags in
// the tag word and no speculative owner: Table 1's L2 holds 16,384 lines.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("line is %d bytes, want 16", n)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newSmall()
	if hit, _ := c.Lookup(10, 0x1000, false); hit {
		t.Fatal("cold lookup hit")
	}
	c.Insert(0x1000, 10, false)
	hit, ready := c.Lookup(20, 0x1000, false)
	if !hit {
		t.Fatal("inserted line missed")
	}
	if ready != 23 {
		t.Fatalf("ready %d, want cycle+latency", ready)
	}
	if c.Misses() != 1 {
		t.Fatalf("misses %d, want 1", c.Misses())
	}
}

// specLines counts the valid speculative lines in c.
func specLines(c *Cache) int {
	n := 0
	for si := range c.fill {
		for _, l := range c.set(uint64(si)) {
			if l.has(lineValid | lineSpec) {
				n++
			}
		}
	}
	return n
}

func TestFutureReadyPropagates(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 500, false) // fill arrives at cycle 500
	_, ready := c.Lookup(100, 0x1000, false)
	if ready != 500 {
		t.Fatalf("pending fill ready %d, want 500", ready)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall() // 2-way; lines 0x0000, 0x0100, 0x0200 share set 0 (4 sets x 64B)
	c.Insert(0x0000, 0, false)
	c.Insert(0x0100, 0, false)
	c.Lookup(5, 0x0000, false) // make 0x0000 MRU
	ev := c.Insert(0x0200, 10, false)
	if !ev.Valid || ev.Addr != 0x0100 {
		t.Fatalf("evicted %+v, want LRU 0x0100", ev)
	}
	if !c.Contains(0x0000) || c.Contains(0x0100) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := newSmall()
	c.Insert(0x0000, 0, true)
	c.Insert(0x0100, 0, false)
	ev := c.Insert(0x0200, 0, false)
	if !ev.Dirty {
		t.Fatal("dirty victim not reported")
	}
	if c.Writebacks() != 1 {
		t.Fatalf("writebacks %d", c.Writebacks())
	}
}

func TestInsertExistingMerges(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 100, false)
	ev := c.Insert(0x1000, 200, true) // racing fill: later ready, dirty
	if ev.Valid {
		t.Fatal("merging insert evicted something")
	}
	_, ready := c.Lookup(0, 0x1000, false)
	if ready != 200 {
		t.Fatalf("merged ready %d", ready)
	}
}

// --- speculative line state (Section 4.3) ---

func TestSpecWriteOneVersionRule(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 0, false)
	if r := c.SpecWrite(0x1000, 5, false); !r.Present || r.Conflict {
		t.Fatalf("first spec write: %+v", r)
	}
	// Same checkpoint may write again.
	if r := c.SpecWrite(0x1000, 5, false); r.Conflict {
		t.Fatal("same-checkpoint rewrite conflicted")
	}
	// A different checkpoint must stall.
	r := c.SpecWrite(0x1000, 6, false)
	if !r.Conflict || r.OwnerCkpt != 5 {
		t.Fatalf("one-version rule not enforced: %+v", r)
	}
}

func TestSpecWriteDirtyWritebackFirst(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 0, true) // committed dirty data
	r := c.SpecWrite(0x1000, 1, false)
	if !r.NeededWriteback {
		t.Fatal("dirty line speculatively overwritten without writeback")
	}
	if c.Writebacks() != 1 {
		t.Fatalf("writebacks %d", c.Writebacks())
	}
	// A second spec write must not write back again.
	if r := c.SpecWrite(0x1000, 1, false); r.NeededWriteback {
		t.Fatal("double writeback")
	}
}

func TestSpecWriteAbsentLine(t *testing.T) {
	c := newSmall()
	if r := c.SpecWrite(0x1000, 1, false); r.Present {
		t.Fatal("absent line reported present")
	}
}

func TestCommitSpecMakesDirty(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 0, false)
	c.SpecWrite(0x1000, 3, false)
	if n := c.CommitSpec(3); n != 1 {
		t.Fatalf("committed %d", n)
	}
	// Committed store data is architectural: evicting it must write back.
	c.Insert(0x0000, 0, false) // same set
	ev1 := c.Insert(0x0100+0x1000%0x100, 0, false)
	_ = ev1
	if specLines(c) != 0 {
		t.Fatal("spec lines remain after commit")
	}
	// A new checkpoint can now spec-write it.
	if r := c.SpecWrite(0x1000, 9, false); r.Conflict {
		t.Fatal("committed line still owned")
	}
}

func TestDiscardSpecTempOnlyDropsTemps(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 0, false)
	c.Insert(0x2000, 0, false)
	c.SpecWrite(0x1000, 1, true)  // temporary update (§6.5)
	c.SpecWrite(0x2000, 1, false) // redo (non-temp) update
	var addrs []uint64
	n := c.DiscardSpecTemp(func(a uint64) { addrs = append(addrs, a) })
	if n != 1 || len(addrs) != 1 || addrs[0] != 0x1000 {
		t.Fatalf("temp discard returned %v", addrs)
	}
	if c.Contains(0x1000) {
		t.Fatal("temp line still valid")
	}
	if !c.Contains(0x2000) {
		t.Fatal("redo line was dropped")
	}
}

func TestDiscardSpecFrom(t *testing.T) {
	c := newSmall()
	c.Insert(0x1000, 0, false)
	c.Insert(0x2000, 0, false)
	c.SpecWrite(0x1000, 4, false)
	c.SpecWrite(0x2000, 7, false)
	var addrs []uint64
	n := c.DiscardSpecFrom(5, func(a uint64) { addrs = append(addrs, a) }) // squash checkpoints >= 5
	if n != 1 || len(addrs) != 1 || addrs[0] != 0x2000 {
		t.Fatalf("squash discard returned %v", addrs)
	}
	if !c.Contains(0x1000) || c.Contains(0x2000) {
		t.Fatal("wrong lines discarded")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	NewCache("bad", 3*64, 1, 1)
}

// TestLRUMatchesReference checks the cache's hit/miss stream against a
// straightforward reference LRU model over random traffic.
func TestLRUMatchesReference(t *testing.T) {
	c := NewCache("p", 8*64*4, 4, 1) // 8 sets, 4-way
	type key struct{ set, tag uint64 }
	ref := map[uint64][]uint64{} // set -> tags, MRU first
	rnd := uint64(0x12345)
	next := func(n uint64) uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd % n
	}
	for i := 0; i < 20_000; i++ {
		addr := next(64) * 64 // 64 distinct lines over 8 sets
		set := (addr / 64) % 8
		tag := addr / 64 / 8
		// Reference lookup.
		tags := ref[set]
		refHit := false
		for j, tg := range tags {
			if tg == tag {
				refHit = true
				copy(tags[1:j+1], tags[:j])
				tags[0] = tag
				break
			}
		}
		hit, _ := c.Lookup(uint64(i), addr, false)
		if hit != refHit {
			t.Fatalf("access %d addr %#x: cache hit=%v reference=%v", i, addr, hit, refHit)
		}
		if !hit {
			c.Insert(addr, uint64(i), false)
			tags = append([]uint64{tag}, tags...)
			if len(tags) > 4 {
				tags = tags[:4]
			}
			ref[set] = tags
		}
	}
}

// TestTopOfAddressSpace runs a one-set, fully associative cache, whose
// tags are 58 bits (a tag shift of 6), on line addresses at the top of the
// address space and on the addresses that differ from the top line only in
// one of the four bits a tag shares with the flags. Each line must be told
// apart from every other, keep its own dirty and speculative state, and
// come back whole from an eviction and a discard: no flag aliases a tag bit.
func TestTopOfAddressSpace(t *testing.T) {
	const ways = 8
	c := NewCache("top", ways*64, ways, 1)
	if c.tagShift != 6 || len(c.fill) != 1 {
		t.Fatalf("tag shift %d, %d sets: want 6 and one set", c.tagShift, len(c.fill))
	}
	top := ^uint64(0) &^ 63
	addrs := []uint64{top, top - 64, top - 128,
		top &^ (1 << 63), top &^ (1 << 62), top &^ (1 << 61), top &^ (1 << 60), 0}
	for i, a := range addrs {
		if ev := c.Insert(a, uint64(i), false); ev.Valid {
			t.Fatalf("insert %#x into a set with room evicted %+v", a, ev)
		}
	}
	for _, a := range addrs {
		if hit, _ := c.Lookup(100, a, false); !hit {
			t.Fatalf("%#x missed", a)
		}
	}
	c.Lookup(101, top, true)
	if r := c.SpecWrite(top&^(1<<61), 7, true); !r.Present || r.Conflict || r.NeededWriteback {
		t.Fatalf("speculative write to a clean line: %+v", r)
	}
	for _, a := range addrs {
		wantSpec := a == top&^(1<<61)
		if r := c.SpecWrite(a, 8, false); r.Conflict != wantSpec || r.NeededWriteback != (a == top) {
			t.Fatalf("%#x: second checkpoint's write %+v", a, r)
		}
		if got := c.HasTempSpec(a); got != wantSpec {
			t.Fatalf("%#x: HasTempSpec %v, want %v", a, got, wantSpec)
		}
	}
	// Every line but checkpoint 7's is now owned by checkpoint 8;
	// discarding from 8 must name each of them by its full address.
	var dropped []uint64
	c.DiscardSpecFrom(8, func(a uint64) { dropped = append(dropped, a) })
	if len(dropped) != ways-1 {
		t.Fatalf("discarded %#x, want the %d lines checkpoint 8 owns", dropped, ways-1)
	}
	for _, a := range dropped {
		if a == top&^(1<<61) || c.Contains(a) {
			t.Fatalf("discard named %#x, still resident %v", a, c.Contains(a))
		}
	}
	if !c.Contains(top&^(1<<61)) || c.CommitSpec(7) != 1 {
		t.Fatal("checkpoint 7's line did not survive the discard to commit")
	}
	if present, dirty := c.Invalidate(top &^ (1 << 61)); !present || !dirty {
		t.Fatalf("committed line: present %v dirty %v, want both", present, dirty)
	}
	// Refill the set with the same addresses: the LRU way of each insert
	// is an invalidated line until none is left, then a resident one,
	// which must come back as its own full address.
	for i, a := range addrs {
		c.Insert(a, 200+uint64(i), i%2 == 0)
	}
	for i, a := range addrs {
		ev := c.Insert(top-uint64(i+3)*64, 300, false)
		if !ev.Valid || ev.Addr != a || ev.Dirty != (i%2 == 0) {
			t.Fatalf("evicted %+v, want %#x dirty %v", ev, a, i%2 == 0)
		}
	}
}
