package cachesim

import (
	"reflect"
	"testing"

	"srlproc/internal/isa"
	"srlproc/internal/xrand"
)

// TestSpecWalkMatchesFullWalk drives random fills, lookups, invalidations,
// speculative writes, commits and discards through two identical caches.
// Before each bulk operation the reference's anySpec flag is forced on, so
// it always walks every line; the cache under test may return early. Both
// must report the same results and hold the same lines after every
// operation, and whenever the cache under test claims no speculative line
// (anySpec false), a walk must find none. Every evicted line address must
// be one that was filled, which checks the mask-and-shift address rebuild.
// A map from line address to owning checkpoint, kept beside the caches,
// checks the owner table: every valid speculative line must carry its
// address's owner, and no other line may be speculative.
func TestSpecWalkMatchesFullWalk(t *testing.T) {
	cases := map[string]int{}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		c := NewCache("t", 8*64*2, 2, 3) // 8 sets, 2-way
		ref := NewCache("t", 8*64*2, 2, 3)
		filled := map[uint64]bool{}
		owners := map[uint64]int{} // valid speculative lines' owners
		pick := func() uint64 { return 0x4000 + isa.CacheLineSize*rng.Uint64n(40) }
		for step := 0; step < 5000; step++ {
			op := ""
			bulk := false
			switch k := rng.Intn(100); {
			case k < 30:
				op = "insert"
				a, dirty := pick(), rng.Bool(0.3)
				if set := c.set(c.setIdx(a)); !c.Contains(a) && len(set) == c.assoc && set[len(set)-1].has(lineValid|lineSpec) {
					cases["evict a speculative line"]++
				}
				filled[a] = true
				ev, rev := c.Insert(a, uint64(step), dirty), ref.Insert(a, uint64(step), dirty)
				if ev != rev {
					t.Fatalf("seed %d step %d: Insert evicted %+v, reference %+v", seed, step, ev, rev)
				}
				if ev.Valid && !filled[ev.Addr] {
					t.Fatalf("seed %d step %d: evicted %#x, never filled", seed, step, ev.Addr)
				}
				if ev.Valid {
					delete(owners, ev.Addr)
				}
			case k < 40:
				op = "lookup"
				a := pick()
				hit, _ := c.Lookup(uint64(step), a, false)
				if rhit, _ := ref.Lookup(uint64(step), a, false); hit != rhit {
					t.Fatalf("seed %d step %d: Lookup %v, reference %v", seed, step, hit, rhit)
				}
			case k < 46:
				op = "invalidate"
				a := pick()
				if isSpec(c, a) {
					cases["invalidate a speculative line"]++
				}
				p, d := c.Invalidate(a)
				if rp, rd := ref.Invalidate(a); p != rp || d != rd {
					t.Fatalf("seed %d step %d: Invalidate %v/%v, reference %v/%v", seed, step, p, d, rp, rd)
				}
				delete(owners, a)
			case k < 70:
				op = "spec write"
				a, ck, temp := pick(), rng.Intn(6), rng.Bool(0.5)
				r, rr := c.SpecWrite(a, ck, temp), ref.SpecWrite(a, ck, temp)
				if r != rr {
					t.Fatalf("seed %d step %d: SpecWrite %+v, reference %+v", seed, step, r, rr)
				}
				if o, ok := owners[a]; r.Conflict != (ok && o != ck) || r.Conflict && r.OwnerCkpt != o {
					t.Fatalf("seed %d step %d: SpecWrite(%#x, %d) = %+v, owner %d (speculative %v)", seed, step, a, ck, r, o, ok)
				}
				if r.Present && !r.Conflict {
					owners[a] = ck
				}
			case k < 82:
				op, bulk = "commit", true
				ck := rng.Intn(6)
				skipped := !c.anySpec
				ref.anySpec = true
				n, rn := c.CommitSpec(ck), ref.CommitSpec(ck)
				if n != rn {
					t.Fatalf("seed %d step %d: CommitSpec(%d) = %d, full walk %d", seed, step, ck, n, rn)
				}
				for a, o := range owners {
					if o == ck {
						delete(owners, a)
					}
				}
				if skipped {
					cases["commit skipped"]++
				} else if n > 0 {
					cases["commit walked and committed"]++
				}
			case k < 91:
				op, bulk = "discard from", true
				ck := rng.Intn(6)
				skipped := !c.anySpec
				ref.anySpec = true
				got, want := discarded(t, func(drop func(uint64)) int { return c.DiscardSpecFrom(ck, drop) }),
					discarded(t, func(drop func(uint64)) int { return ref.DiscardSpecFrom(ck, drop) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: DiscardSpecFrom(%d) = %v, full walk %v", seed, step, ck, got, want)
				}
				for _, a := range got {
					if owners[a] < ck {
						t.Fatalf("seed %d step %d: DiscardSpecFrom(%d) dropped %#x, owned by %d", seed, step, ck, a, owners[a])
					}
					delete(owners, a)
				}
				if skipped {
					cases["discard skipped"]++
				} else if len(got) > 0 {
					cases["discard walked and dropped lines"]++
				}
			default:
				op, bulk = "discard temp", true
				skipped := !c.anySpec
				ref.anySpec = true
				got, want := discarded(t, c.DiscardSpecTemp), discarded(t, ref.DiscardSpecTemp)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: DiscardSpecTemp = %v, full walk %v", seed, step, got, want)
				}
				for _, a := range got {
					delete(owners, a)
				}
				if skipped {
					cases["discard skipped"]++
				} else if len(got) > 0 {
					cases["temp discard walked and dropped lines"]++
				}
			}
			if !reflect.DeepEqual(setsOf(c), setsOf(ref)) {
				t.Fatalf("seed %d step %d (%s): line state differs from the full-walk reference", seed, step, op)
			}
			spec := 0
			for si, set := range setsOf(c) {
				for _, v := range set {
					if v.owner < 0 {
						continue
					}
					spec++
					if a := c.lineAddr(v.tag(), uint64(si)); owners[a] != v.owner {
						t.Fatalf("seed %d step %d (%s): line %#x owned by %d, want %d", seed, step, op, a, v.owner, owners[a])
					}
				}
			}
			if spec != len(owners) {
				t.Fatalf("seed %d step %d (%s): %d speculative lines, want %d", seed, step, op, spec, len(owners))
			}
			if n := specLines(c); n > 0 && !c.anySpec {
				t.Fatalf("seed %d step %d (%s): %d speculative lines with anySpec false", seed, step, op, n)
			} else if bulk && c.anySpec != (n > 0) {
				t.Fatalf("seed %d step %d (%s): a walk left anySpec %v with %d speculative lines", seed, step, op, c.anySpec, n)
			}
		}
	}
	for _, want := range []string{"evict a speculative line", "invalidate a speculative line", "commit skipped",
		"commit walked and committed", "discard skipped", "discard walked and dropped lines",
		"temp discard walked and dropped lines"} {
		if cases[want] == 0 {
			t.Errorf("case never exercised: %s", want)
		}
	}
	t.Logf("cases: %v", cases)
}

// discarded runs a discard and returns the addresses it passed to its
// callback, in order. A count that disagrees with them fails the test.
func discarded(t *testing.T, discard func(drop func(uint64)) int) []uint64 {
	t.Helper()
	var addrs []uint64
	if n := discard(func(a uint64) { addrs = append(addrs, a) }); n != len(addrs) {
		t.Fatalf("discard returned %d for %d lines", n, len(addrs))
	}
	return addrs
}

// lineView is one line's state as a test compares it: the line itself and,
// while it is valid and speculative, its owner (-1 otherwise, when the
// owner table's entry means nothing).
type lineView struct {
	line
	owner int
}

// setsOf returns every set's resident lines, MRU-first, in set order.
func setsOf(c *Cache) [][]lineView {
	sets := make([][]lineView, len(c.fill))
	for si := range sets {
		for i, l := range c.set(uint64(si)) {
			v := lineView{line: l, owner: -1}
			if l.has(lineValid | lineSpec) {
				v.owner = c.owner[si*c.assoc+i]
			}
			sets[si] = append(sets[si], v)
		}
	}
	return sets
}

// isSpec reports whether addr's line is resident and speculative.
func isSpec(c *Cache, addr uint64) bool {
	l, _, _ := c.find(addr)
	return l != nil && l.has(lineSpec)
}
