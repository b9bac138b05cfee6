package lsq

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"srlproc/internal/xrand"
)

// walkQueue is the reference StoreQueue must match: the same ring, with no
// address indexes, searched by walking every entry older than the load,
// youngest first.
type walkQueue struct {
	entries               []StoreEntry
	head, count           int
	searches, camEntryOps uint64
}

func (q *walkQueue) at(i int) *StoreEntry {
	return &q.entries[ringSlot(q.head, i, len(q.entries))]
}

func (q *walkQueue) alloc(e StoreEntry) (int, bool) {
	if q.count == len(q.entries) {
		return -1, false
	}
	slot := ringSlot(q.head, q.count, len(q.entries))
	q.entries[slot] = e
	q.count++
	return slot, true
}

func (q *walkQueue) popHead() (StoreEntry, bool) {
	if q.count == 0 {
		return StoreEntry{}, false
	}
	e := *q.at(0)
	q.head = ringSlot(q.head, 1, len(q.entries))
	q.count--
	return e, true
}

func (q *walkQueue) squashYoungerThan(seq uint64) []StoreEntry {
	var removed []StoreEntry
	for q.count > 0 && q.at(q.count-1).Seq > seq {
		removed = append(removed, *q.at(q.count - 1))
		q.count--
	}
	return removed
}

func (q *walkQueue) search(addr, loadSeq uint64) SearchResult {
	q.searches++
	var res SearchResult
	for i := q.count - 1; i >= 0; i-- { // youngest first
		e := q.at(i)
		if e.Seq >= loadSeq {
			continue
		}
		q.camEntryOps++
		if !e.AddrKnown {
			res.UnknownOlder = true
			res.UnknownSeqs = append(res.UnknownSeqs, e.Seq)
			continue
		}
		if overlap(e.Addr, addr) && !res.Hit {
			res.Hit = true
			res.Entry = e
			res.PoisonedMatch = !e.DataReady
		}
	}
	return res
}

// find returns the resident entry with sequence number seq, or nil.
func (q *walkQueue) find(seq uint64) *StoreEntry {
	for i := 0; i < q.count; i++ {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// storePair drives a StoreQueue and its walking reference in lockstep.
type storePair struct {
	q *StoreQueue
	r *walkQueue
}

// newStorePair builds a pair whose queue owns an MTB of mtbEntries
// counters, or none when mtbEntries is 0.
func newStorePair(capacity, mtbEntries int) storePair {
	var mtb *MTB
	if mtbEntries > 0 {
		mtb = NewMTB(mtbEntries)
	}
	return storePair{NewStoreQueue(capacity, mtb), &walkQueue{entries: make([]StoreEntry, capacity)}}
}

// agree fails unless both sides hold the same entries and counters.
func (p storePair) agree(t *testing.T, op string) {
	t.Helper()
	if p.q.Len() != p.r.count {
		t.Fatalf("%s: Len %d, walk %d", op, p.q.Len(), p.r.count)
	}
	for i := 0; i < p.r.count; i++ {
		if *p.q.at(i) != *p.r.at(i) {
			t.Fatalf("%s: entry %d is %+v, walk %+v", op, i, *p.q.at(i), *p.r.at(i))
		}
	}
	if p.q.Searches() != p.r.searches || p.q.CamEntryOps() != p.r.camEntryOps {
		t.Fatalf("%s: counters %d/%d, walk %d/%d", op, p.q.Searches(), p.q.CamEntryOps(),
			p.r.searches, p.r.camEntryOps)
	}
	unknown := 0
	for i := 0; i < p.r.count; i++ {
		if !p.r.at(i).AddrKnown {
			unknown++
		}
	}
	if p.q.UnknownAddrs() != unknown {
		t.Fatalf("%s: UnknownAddrs %d, walk counts %d", op, p.q.UnknownAddrs(), unknown)
	}
	if m := p.q.mtb; m != nil {
		want := make([]uint16, len(m.counters))
		for i := 0; i < p.r.count; i++ {
			if e := p.r.at(i); e.AddrKnown {
				want[m.idx(e.Addr)]++
			}
		}
		if !reflect.DeepEqual(m.counters, want) {
			t.Fatalf("%s: MTB counters %v, rebuilt from the walk's known entries %v", op, m.counters, want)
		}
	}
}

func sameSearch(got, want SearchResult) bool {
	if got.Hit != want.Hit || got.UnknownOlder != want.UnknownOlder || got.PoisonedMatch != want.PoisonedMatch {
		return false
	}
	if got.Hit && got.Entry.Seq != want.Entry.Seq {
		return false
	}
	return reflect.DeepEqual(got.UnknownSeqs, want.UnknownSeqs)
}

// TestStoreQueueMatchesWalk drives random Alloc, Resolve, Find, PopHead,
// squash and Search traffic — and the hierarchical design's PopHead→Alloc
// displacement from a small L1 queue into a large L2 one — through the
// indexed StoreQueue and the walking reference, and requires the same
// search answers and the same power counters after every operation. The
// L2 queue owns an MTB, as in the hierarchical design, and on even seeds
// so does the L1 queue, as in the filtered design; each MTB must count
// exactly its queue's known-address entries.
func TestStoreQueueMatchesWalk(t *testing.T) {
	cases := map[string]int{}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		l1, l2 := newStorePair(6+int(seed%3), 16*int(1-seed%2)), newStorePair(24, 16)
		pairs := []storePair{l1, l2}
		next := uint64(1)
		addrs := 4 + rng.Intn(12) // a small word pool, so matches happen
		addr := func() uint64 { return 0x1000 + 8*rng.Uint64n(uint64(addrs)) + rng.Uint64n(8) }
		oldest := func() uint64 {
			if l2.r.count > 0 {
				return l2.r.at(0).Seq
			}
			if l1.r.count > 0 {
				return l1.r.at(0).Seq
			}
			return next
		}
		for step := 0; step < 4000; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 30:
				op = "alloc"
				e := StoreEntry{Seq: next, SRLIndex: next, DataReady: rng.Bool(0.5)}
				if rng.Bool(0.4) {
					e.AddrKnown, e.Addr, e.Size = true, addr(), 8
				}
				ok := l1.q.Alloc(e)
				if _, rok := l1.r.alloc(e); ok != rok {
					t.Fatalf("seed %d step %d: Alloc ok %v, walk %v", seed, step, ok, rok)
				}
				if ok {
					next++
				} else {
					cases["alloc into a full queue"]++
				}
			case k < 48:
				op = "resolve"
				p := pairs[rng.Intn(2)]
				if p.r.count == 0 {
					continue
				}
				i := rng.Intn(p.r.count)
				a := addr()
				e := p.q.Find(p.r.at(i).Seq)
				if e != p.q.at(i) {
					t.Fatalf("seed %d step %d: Find(%d) is not entry %d", seed, step, p.r.at(i).Seq, i)
				}
				if p.q.mtb != nil && !e.AddrKnown {
					cases["resolve an unknown entry of an MTB queue"]++
				}
				if e.AddrKnown {
					cases["resolve a known entry again"]++
				} else {
					cases["resolve an unknown entry"]++
				}
				p.q.Resolve(e, a, 8)
				re := p.r.at(i)
				re.AddrKnown, re.Addr, re.Size = true, a, 8
			case k < 60:
				op = "displace"
				if l1.r.count == 0 || l2.r.count == len(l2.r.entries) {
					continue
				}
				he, _ := l1.q.PopHead()
				rhe, _ := l1.r.popHead()
				if he != rhe {
					t.Fatalf("seed %d step %d: PopHead %+v, walk %+v", seed, step, he, rhe)
				}
				if !he.AddrKnown {
					cases["displace an unknown entry"]++
				}
				if l1.q.mtb != nil && he.AddrKnown {
					cases["displace a known entry out of an MTB queue"]++
				}
				l2.q.Alloc(he)
				l2.r.alloc(rhe)
			case k < 66:
				op = "drain"
				p := pairs[rng.Intn(2)]
				if p.r.count == 0 {
					continue
				}
				e, _ := p.q.PopHead()
				re, _ := p.r.popHead()
				if e != re {
					t.Fatalf("seed %d step %d: PopHead %+v, walk %+v", seed, step, e, re)
				}
				if p.q.mtb != nil && e.AddrKnown {
					cases["drain a known entry of an MTB queue"]++
				}
			case k < 70:
				op = "squash"
				span := next - oldest()
				if span == 0 {
					continue
				}
				keep := oldest() - 1 + rng.Uint64n(span+1)
				for _, p := range []storePair{l1, l2} {
					p.q.SquashYoungerThan(keep)
					for _, e := range p.r.squashYoungerThan(keep) {
						if !e.AddrKnown {
							cases["squash an unknown entry"]++
						} else if p.q.mtb != nil {
							cases["squash a known entry of an MTB queue"]++
						}
					}
				}
				next = keep + 1
			case k < 74:
				op = "find"
				p := pairs[rng.Intn(2)]
				seq := oldest() - 1 + rng.Uint64n(next-oldest()+2)
				got, want := p.q.Find(seq), p.r.find(seq)
				if (got == nil) != (want == nil) || (got != nil && *got != *want) {
					t.Fatalf("seed %d step %d: Find(%d) = %+v, walk %+v", seed, step, seq, got, want)
				}
				if got != nil {
					cases["find a resident seq"]++
				} else {
					cases["find an absent seq"]++
				}
			default:
				op = "search"
				p := pairs[rng.Intn(2)]
				a, lo := addr(), oldest()
				loadSeq := lo + rng.Uint64n(next-lo+2)
				filtered := !p.q.known.mayHold(a) && p.q.olderThan(loadSeq) > 0
				got := p.q.Search(a, loadSeq)
				want := p.r.search(a, loadSeq)
				if !sameSearch(got, want) {
					t.Fatalf("seed %d step %d: Search(%#x, seq %d) = %+v, walk %+v", seed, step, a, loadSeq, got, want)
				}
				switch {
				case filtered:
					cases["search the filter proves empty over older stores"]++
				case got.Hit:
					cases["search that hits"]++
				default:
					cases["search the filter passes that misses"]++
				}
				if got.PoisonedMatch {
					cases["poisoned match"]++
				}
				if len(got.UnknownSeqs) > 1 {
					cases["several unknown older stores"]++
				}
				if p.q.olderThan(loadSeq) < p.q.Len() {
					cases["search with younger stores resident"]++
				}
			}
			for i, p := range pairs {
				p.agree(t, fmt.Sprintf("seed %d step %d (%s) queue L%d", seed, step, op, i+1))
			}
		}
	}
	for _, c := range []string{"alloc into a full queue", "resolve a known entry again", "resolve an unknown entry",
		"displace an unknown entry", "squash an unknown entry", "search the filter proves empty over older stores", "search that hits",
		"search the filter passes that misses", "poisoned match", "several unknown older stores",
		"search with younger stores resident", "resolve an unknown entry of an MTB queue",
		"displace a known entry out of an MTB queue", "drain a known entry of an MTB queue",
		"squash a known entry of an MTB queue", "find a resident seq", "find an absent seq"} {
		if cases[c] == 0 {
			t.Errorf("case never exercised: %s", c)
		}
	}
	t.Logf("cases: %v", cases)
}

// walkLoadBuffer is the reference LoadBuffer must match: the same sets,
// with no word filter or occupancy bits, so a check compares every entry
// of the indexed set and the victim buffer, and a bulk removal visits
// every set.
type walkLoadBuffer struct {
	sets               [][]LoadEntry
	assoc, nsets       int
	policy             OverflowPolicy
	victim             []LoadEntry
	vcap, count        int
	lookups, entryCmps uint64
	overflows          uint64
}

func newWalkLoadBuffer(capacity, assoc int, policy OverflowPolicy, victimCap int) *walkLoadBuffer {
	if assoc >= capacity {
		assoc = capacity
	}
	return &walkLoadBuffer{sets: make([][]LoadEntry, capacity/assoc), assoc: assoc, nsets: capacity / assoc,
		policy: policy, vcap: victimCap}
}

func (b *walkLoadBuffer) set(addr uint64) int {
	w := wordAddr(addr)
	return int((w ^ (w >> 7) ^ (w >> 14)) % uint64(b.nsets))
}

func (b *walkLoadBuffer) insert(e LoadEntry) bool {
	si := b.set(e.Addr)
	if len(b.sets[si]) < b.assoc {
		b.sets[si] = append(b.sets[si], e)
		b.count++
		return true
	}
	b.overflows++
	if b.policy == OverflowVictim && len(b.victim) < b.vcap {
		b.victim = append(b.victim, e)
		b.count++
		return true
	}
	return false
}

func (b *walkLoadBuffer) scan(addr uint64, fn func(*LoadEntry)) {
	w := wordAddr(addr)
	set := b.sets[b.set(addr)]
	for i := range set {
		b.entryCmps++
		if wordAddr(set[i].Addr) == w {
			fn(&set[i])
		}
	}
	for i := range b.victim {
		b.entryCmps++
		if wordAddr(b.victim[i].Addr) == w {
			fn(&b.victim[i])
		}
	}
}

func (b *walkLoadBuffer) storeCheck(addr uint64, storeIdx uint64) (Violation, bool) {
	b.lookups++
	var v Violation
	found := false
	b.scan(addr, func(e *LoadEntry) {
		if e.NearestStoreID < storeIdx {
			return
		}
		if (e.FwdStoreID == NoFwd || e.FwdStoreID < storeIdx) && (!found || e.Seq < v.LoadSeq) {
			found = true
			v = Violation{LoadSeq: e.Seq, LoadPC: e.PC, Ckpt: e.Ckpt}
		}
	})
	return v, found
}

func (b *walkLoadBuffer) snoopCheck(addr uint64) (Violation, bool) {
	b.lookups++
	var v Violation
	found := false
	b.scan(addr, func(e *LoadEntry) {
		if !found || e.Seq < v.LoadSeq {
			found = true
			v = Violation{LoadSeq: e.Seq, LoadPC: e.PC, Ckpt: e.Ckpt}
		}
	})
	return v, found
}

func (b *walkLoadBuffer) removeIf(pred func(*LoadEntry) bool) int {
	removed := 0
	for si := range b.sets {
		out := b.sets[si][:0]
		for _, e := range b.sets[si] {
			if pred(&e) {
				removed++
			} else {
				out = append(out, e)
			}
		}
		b.sets[si] = out
	}
	vout := b.victim[:0]
	for _, e := range b.victim {
		if pred(&e) {
			removed++
		} else {
			vout = append(vout, e)
		}
	}
	b.victim = vout
	b.count -= removed
	return removed
}

func (b *walkLoadBuffer) entries() []LoadEntry {
	var all []LoadEntry
	for _, set := range b.sets {
		all = append(all, set...)
	}
	return append(all, b.victim...)
}

// TestLoadBufferMatchesWalk drives random inserts (with set overflow into
// the victim buffer or into a refusal), store checks, snoops, checkpoint
// commits and squashes through LoadBuffer and the walking reference, in
// the secondary set-associative, the conventional fully associative and
// the overflow-violate shapes, and requires the same answers, the same
// resident entries in the same order, and the same activity counters
// after every operation.
func TestLoadBufferMatchesWalk(t *testing.T) {
	cases := map[string]int{}
	shapes := []struct {
		capacity, assoc int
		policy          OverflowPolicy
		victim          int
	}{
		{64, 4, OverflowVictim, 4},
		{32, 32, OverflowViolate, 0},
		{32, 2, OverflowViolate, 0},
	}
	for si, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed*31 + uint64(si))
			b := NewLoadBuffer(sh.capacity, sh.assoc, sh.policy, sh.victim)
			r := newWalkLoadBuffer(sh.capacity, sh.assoc, sh.policy, sh.victim)
			var seq, storeID uint64 = 1, 1
			ckpt := 0
			addrs := 8 + rng.Intn(40)
			addr := func() uint64 { return 0x4000 + 8*rng.Uint64n(uint64(addrs)) }
			for step := 0; step < 3000; step++ {
				var op string
				switch k := rng.Intn(100); {
				case k < 40:
					op = "insert"
					e := LoadEntry{Seq: seq, PC: 0x400 + seq, Addr: addr(),
						NearestStoreID: storeID, FwdStoreID: NoFwd, Ckpt: ckpt}
					if rng.Bool(0.3) && storeID > 1 {
						e.FwdStoreID = 1 + rng.Uint64n(storeID)
					}
					seq++
					if rng.Bool(0.3) {
						storeID++
					}
					if rng.Bool(0.05) {
						ckpt++
					}
					victims := len(b.victim)
					ok := b.Insert(e)
					if rok := r.insert(e); ok != rok {
						t.Fatalf("%v seed %d step %d: Insert ok %v, walk %v", sh, seed, step, ok, rok)
					}
					switch {
					case !ok:
						cases["overflow refused"]++
					case len(b.victim) > victims:
						cases["overflow into the victim buffer"]++
					}
				case k < 62:
					op = "store check"
					a, idx := addr(), 1+rng.Uint64n(storeID+1)
					filtered := !b.words.mayHold(a)
					v, found := b.StoreCheck(a, idx)
					rv, rfound := r.storeCheck(a, idx)
					if found != rfound || v != rv {
						t.Fatalf("%v seed %d step %d: StoreCheck = %+v/%v, walk %+v/%v", sh, seed, step, v, found, rv, rfound)
					}
					switch {
					case filtered && len(b.set(b.setIdx(a)))+len(b.victim) > 0:
						cases["check the filter proves empty"]++
					case found:
						cases["store check violation"]++
					}
				case k < 72:
					op = "snoop"
					a := addr()
					v, found := b.SnoopCheck(a)
					rv, rfound := r.snoopCheck(a)
					if found != rfound || v != rv {
						t.Fatalf("%v seed %d step %d: SnoopCheck = %+v/%v, walk %+v/%v", sh, seed, step, v, found, rv, rfound)
					}
					if found {
						cases["snoop violation"]++
					}
				case k < 88:
					op = "commit"
					c := ckpt - rng.Intn(3)
					n := b.CommitCkpt(c)
					if rn := r.removeIf(func(e *LoadEntry) bool { return e.Ckpt == c }); n != rn {
						t.Fatalf("%v seed %d step %d: CommitCkpt removed %d, walk %d", sh, seed, step, n, rn)
					}
					if n > 0 {
						cases["commit removes loads"]++
					}
				default:
					op = "squash"
					keep := seq - 1 - rng.Uint64n(min(seq, 20))
					n := b.SquashYoungerThan(keep)
					if rn := r.removeIf(func(e *LoadEntry) bool { return e.Seq > keep }); n != rn {
						t.Fatalf("%v seed %d step %d: SquashYoungerThan removed %d, walk %d", sh, seed, step, n, rn)
					}
					if n > 0 {
						cases["squash removes loads"]++
					}
					seq = keep + 1
				}
				var got []LoadEntry
				b.ForEach(func(e *LoadEntry) { got = append(got, *e) })
				if want := r.entries(); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%v seed %d step %d (%s): resident %v, walk %v", sh, seed, step, op, got, want)
				}
				if b.Len() != r.count || b.Lookups() != r.lookups || b.EntryCompares() != r.entryCmps || b.Overflows() != r.overflows {
					t.Fatalf("%v seed %d step %d (%s): Len/Lookups/EntryCompares/Overflows %d/%d/%d/%d, walk %d/%d/%d/%d",
						sh, seed, step, op, b.Len(), b.Lookups(), b.EntryCompares(), b.Overflows(),
						r.count, r.lookups, r.entryCmps, r.overflows)
				}
				for si := range b.fill {
					set := b.set(si)
					if occ := b.occupied[si>>6]>>(si&63)&1 == 1; occ != (len(set) > 0) {
						t.Fatalf("%v seed %d step %d (%s): set %d occupancy bit %v with %d entries", sh, seed, step, op, si, occ, len(set))
					}
				}
			}
		}
	}
	for _, c := range []string{"overflow refused", "overflow into the victim buffer", "check the filter proves empty",
		"store check violation", "snoop violation", "commit removes loads", "squash removes loads"} {
		if cases[c] == 0 {
			t.Errorf("case never exercised: %s", c)
		}
	}
	t.Logf("cases: %v", cases)
}

// fullRewriteRemoveIf is LoadBuffer.removeIf as it was before it skipped
// the survivors ahead of a set's first removed entry: it copies every
// survivor of every occupied set back over itself.
func fullRewriteRemoveIf(b *LoadBuffer, pred func(*LoadEntry) bool) int {
	removed := 0
	keep := func(es []LoadEntry) []LoadEntry {
		out := es[:0]
		for i := range es {
			if pred(&es[i]) {
				b.words.remove(es[i].Addr)
				removed++
			} else {
				out = append(out, es[i])
			}
		}
		return out
	}
	for wi, occ := range b.occupied {
		for occ != 0 {
			si := wi<<6 | bits.TrailingZeros64(occ)
			occ &= occ - 1
			n := len(keep(b.set(si)))
			if b.fill[si] = uint32(n); n == 0 {
				b.occupied[wi] &^= 1 << (si & 63)
			}
		}
	}
	b.victim = keep(b.victim)
	b.count -= removed
	return removed
}

// TestLoadBufferRemoveMatchesFullRewrite drives random inserts, checkpoint
// commits and squashes through a LoadBuffer and a second one whose bulk
// removals run the full-rewrite form, in the secondary, the fully
// associative and the overflow-violate shapes. After every operation the
// two must be equal in every field, the backing array's slots past each
// set's fill and the word filter included.
func TestLoadBufferRemoveMatchesFullRewrite(t *testing.T) {
	cases := map[string]int{}
	shapes := []struct {
		capacity, assoc int
		policy          OverflowPolicy
		victim          int
	}{
		{64, 4, OverflowVictim, 4},
		{32, 32, OverflowViolate, 0},
		{32, 2, OverflowViolate, 0},
	}
	for si, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed*17 + uint64(si))
			b := NewLoadBuffer(sh.capacity, sh.assoc, sh.policy, sh.victim)
			r := NewLoadBuffer(sh.capacity, sh.assoc, sh.policy, sh.victim)
			var seq uint64 = 1
			ckpt := 0
			addrs := 8 + rng.Intn(40)
			for step := 0; step < 3000; step++ {
				if rng.Intn(100) < 60 {
					e := LoadEntry{Seq: seq, PC: 0x400 + seq, Addr: 0x4000 + 8*rng.Uint64n(uint64(addrs)),
						NearestStoreID: seq, FwdStoreID: NoFwd, Ckpt: ckpt}
					seq++
					if rng.Bool(0.1) {
						ckpt++
					}
					if ok, rok := b.Insert(e), r.Insert(e); ok != rok {
						t.Fatalf("%v seed %d step %d: Insert ok %v and %v", sh, seed, step, ok, rok)
					}
					if !reflect.DeepEqual(b, r) {
						t.Fatalf("%v seed %d step %d (insert): state differs from the full rewrite", sh, seed, step)
					}
					continue
				}
				c := ckpt - rng.Intn(4)
				op, pred := "commit", func(e *LoadEntry) bool { return e.Ckpt == c }
				remove := func() int { return b.CommitCkpt(c) }
				if rng.Bool(0.4) {
					keep := seq - 1 - rng.Uint64n(min(seq, 12))
					op, pred = "squash", func(e *LoadEntry) bool { return e.Seq > keep }
					remove = func() int { return b.SquashYoungerThan(keep) }
					seq = keep + 1
				}
				for si := range b.fill {
					countFirstRemoved(cases, b.set(si), pred)
				}
				countFirstRemoved(cases, b.victim, pred)
				if n, rn := remove(), fullRewriteRemoveIf(r, pred); n != rn {
					t.Fatalf("%v seed %d step %d: %s removed %d, full rewrite %d", sh, seed, step, op, n, rn)
				}
				if !reflect.DeepEqual(b, r) {
					t.Fatalf("%v seed %d step %d (%s): state differs from the full rewrite", sh, seed, step, op)
				}
			}
		}
	}
	for _, c := range []string{"set loses nothing", "set loses its first entry", "set keeps a prefix in place"} {
		if cases[c] == 0 {
			t.Errorf("case never exercised: %s", c)
		}
	}
	t.Logf("cases: %v", cases)
}

// countFirstRemoved classifies a non-empty set by where pred selects its
// first entry, if anywhere.
func countFirstRemoved(cases map[string]int, es []LoadEntry, pred func(*LoadEntry) bool) {
	for i := range es {
		if !pred(&es[i]) {
			continue
		}
		if i == 0 {
			cases["set loses its first entry"]++
		} else {
			cases["set keeps a prefix in place"]++
		}
		return
	}
	if len(es) > 0 {
		cases["set loses nothing"]++
	}
}

// sliceFC is the reference FC must match: one slice per set, grown by
// append up to the associativity, with a valid bit per entry, as the FC
// kept its sets before they became spans of one array.
type sliceFC struct {
	sets    [][]sliceFCEntry
	assoc   int
	setMask uint64
}

type sliceFCEntry struct {
	valid                    bool
	word, srlIndex, storeSeq uint64
}

func newSliceFC(entries, assoc int) *sliceFC {
	f := &sliceFC{sets: make([][]sliceFCEntry, entries/assoc), assoc: assoc, setMask: uint64(entries/assoc - 1)}
	for i := range f.sets {
		f.sets[i] = make([]sliceFCEntry, 0, assoc)
	}
	return f
}

func (f *sliceFC) update(addr, srlIndex, storeSeq uint64) {
	w := wordAddr(addr)
	si := int(w & f.setMask)
	set := f.sets[si]
	for i := range set {
		if set[i].valid && set[i].word == w {
			if storeSeq < set[i].storeSeq {
				return
			}
			e := set[i]
			e.srlIndex, e.storeSeq = srlIndex, storeSeq
			copy(set[1:i+1], set[:i])
			set[0] = e
			return
		}
	}
	if len(set) < f.assoc {
		f.sets[si] = append(set, sliceFCEntry{})
		set = f.sets[si]
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = sliceFCEntry{valid: true, word: w, srlIndex: srlIndex, storeSeq: storeSeq}
}

func (f *sliceFC) lookup(addr, loadSeq uint64) (FCHit, bool) {
	w := wordAddr(addr)
	for _, e := range f.sets[w&f.setMask] {
		if e.valid && e.word == w {
			if e.storeSeq < loadSeq {
				return FCHit{SRLIndex: e.srlIndex, StoreSeq: e.storeSeq}, true
			}
			return FCHit{}, false
		}
	}
	return FCHit{}, false
}

func (f *sliceFC) squashYoungerThan(seq uint64) {
	for si, set := range f.sets {
		out := set[:0]
		for _, e := range set {
			if e.valid && e.storeSeq <= seq {
				out = append(out, e)
			}
		}
		f.sets[si] = out
	}
}

// TestFCMatchesSliceSets drives random updates (older stores arriving late
// included), lookups, discards and squashes through the FC and the
// slice-per-set reference, in a 4-way and a fully associative shape, and
// requires the same answers and the same entries in every set, in the same
// MRU order, after every operation.
func TestFCMatchesSliceSets(t *testing.T) {
	cases := map[string]int{}
	for _, sh := range []struct{ entries, assoc int }{{32, 4}, {8, 8}} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed*17 + uint64(sh.assoc))
			f, r := NewFC(sh.entries, sh.assoc), newSliceFC(sh.entries, sh.assoc)
			var seq uint64 = 1
			addr := func() uint64 { return 0x4000 + 8*rng.Uint64n(48) }
			for step := 0; step < 3000; step++ {
				var op string
				switch k := rng.Intn(100); {
				case k < 45:
					op = "update"
					a, s := addr(), seq
					if rng.Bool(0.2) && seq > 8 {
						s = seq - 1 - rng.Uint64n(8) // a late, older store
						cases["late older update"]++
					}
					seq++
					f.Update(a, s+1000, s)
					r.update(a, s+1000, s)
				case k < 85:
					op = "lookup"
					a, ls := addr(), seq-rng.Uint64n(min(seq, 16))
					hit, ok := f.Lookup(a, ls)
					if rhit, rok := r.lookup(a, ls); hit != rhit || ok != rok {
						t.Fatalf("%v seed %d step %d: Lookup = %+v/%v, reference %+v/%v", sh, seed, step, hit, ok, rhit, rok)
					}
					if ok {
						cases["lookup forwards"]++
					}
				case k < 88:
					op = "discard"
					f.DiscardAll()
					for si := range r.sets {
						r.sets[si] = r.sets[si][:0]
					}
				default:
					op = "squash"
					keep := seq - 1 - rng.Uint64n(min(seq, 24))
					n := f.Len()
					f.SquashYoungerThan(keep)
					r.squashYoungerThan(keep)
					if f.Len() < n {
						cases["squash drops entries"]++
					}
					seq = keep + 1
				}
				for si := range r.sets {
					got, want := f.set(si), r.sets[si]
					same := len(got) == len(want)
					for i := 0; same && i < len(got); i++ {
						same = want[i].valid && got[i] == fcEntry{word: want[i].word, srlIndex: want[i].srlIndex, storeSeq: want[i].storeSeq}
					}
					if !same {
						t.Fatalf("%v seed %d step %d (%s): set %d holds %+v, reference %+v", sh, seed, step, op, si, got, want)
					}
					if len(got) == sh.assoc {
						cases["full set"]++
					}
				}
			}
		}
	}
	for _, c := range []string{"late older update", "lookup forwards", "squash drops entries", "full set"} {
		if cases[c] == 0 {
			t.Errorf("case never exercised: %s", c)
		}
	}
	t.Logf("cases: %v", cases)
}
