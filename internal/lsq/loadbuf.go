package lsq

import "math/bits"

// LoadEntry is one executed load's record in the (secondary) load buffer.
type LoadEntry struct {
	Seq  uint64
	PC   uint64
	Addr uint64
	// NearestStoreID is the SRL virtual index of the last store allocated
	// before the load in program order: a single magnitude comparison
	// against a store's index determines their relative program order
	// (Section 3, "Enforcing load-store dependence").
	NearestStoreID uint64
	// FwdStoreID is the SRL index of the store that forwarded data to the
	// load, or NoFwd if the load read the cache/memory.
	FwdStoreID uint64
	Ckpt       int
}

// NoFwd marks a load that did not forward from any store.
const NoFwd = ^uint64(0)

// Violation describes a detected memory ordering problem.
type Violation struct {
	LoadSeq uint64
	LoadPC  uint64
	Ckpt    int // checkpoint to restart from
}

// OverflowPolicy selects what happens when a load buffer set is full
// (Section 3 offers both options).
type OverflowPolicy int

const (
	// OverflowVictim spills to a small fully associative victim buffer.
	OverflowVictim OverflowPolicy = iota
	// OverflowViolate takes a memory ordering violation on the overflow.
	OverflowViolate
)

// LoadBuffer is the paper's secondary load buffer (Section 3): a
// set-associative, cache-organised structure holding the addresses of all
// loads completed in the shadow of a miss. Unlike a conventional load queue
// it is not program-ordered and is never searched with a full CAM: internal
// store drains and external snoops index one set; checkpoint bits allow
// bulk removal; store identifiers give relative age by magnitude
// comparison. Multiple loads to the same address occupy different ways of
// the same set.
//
// The same structure also models the conventional fully associative load
// queue (associativity = capacity, one set) for the baseline and
// hierarchical designs; the power model charges that configuration CAM
// costs.
//
// The simulator answers a check without comparing entries when it can: a
// word filter over the resident loads proves most lookups match nothing,
// and an occupancy bit per set lets the bulk removals visit only the sets
// that hold loads. EntryCompares still counts what the hardware compares.
type LoadBuffer struct {
	// entries holds every set in one array: set si is the span set(si)
	// returns, its fill[si] entries from entries[si*assoc], in insertion
	// order.
	entries  []LoadEntry
	fill     []uint32
	assoc    int
	setMask  uint64
	occupied []uint64 // bit si set iff set si is non-empty
	policy   OverflowPolicy
	victim   []LoadEntry
	vcap     int
	words    wordFilter // words of every resident entry, victims included

	count     int
	lookups   uint64
	entryCmps uint64
	overflows uint64
}

// NewLoadBuffer creates a load buffer with the given total capacity and
// associativity. If assoc >= capacity the buffer is one fully associative
// set (a conventional load queue). victimCap sizes the overflow victim
// buffer when policy is OverflowVictim.
func NewLoadBuffer(capacity, assoc int, policy OverflowPolicy, victimCap int) *LoadBuffer {
	if assoc >= capacity {
		assoc = capacity
	}
	nsets := capacity / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("lsq: load buffer set count must be a positive power of two")
	}
	return &LoadBuffer{
		entries: make([]LoadEntry, nsets*assoc), fill: make([]uint32, nsets),
		assoc: assoc, setMask: uint64(nsets - 1), occupied: make([]uint64, (nsets+63)/64),
		policy: policy, vcap: victimCap, words: newWordFilter(capacity + victimCap),
	}
}

// Len returns the number of resident entries.
func (b *LoadBuffer) Len() int { return b.count }

// Lookups and EntryCompares return search activity for the power model.
func (b *LoadBuffer) Lookups() uint64       { return b.lookups }
func (b *LoadBuffer) EntryCompares() uint64 { return b.entryCmps }

// Overflows returns how many inserts hit a full set.
func (b *LoadBuffer) Overflows() uint64 { return b.overflows }

// setIdx hashes the word address over the sets. The upper bits are folded
// in so strided access patterns (unit-stride streams touch every 8th word)
// spread across all sets instead of aliasing onto a power-of-two subset.
func (b *LoadBuffer) setIdx(addr uint64) int {
	w := wordAddr(addr)
	return int((w ^ (w >> 7) ^ (w >> 14)) & b.setMask)
}

// set returns set si's resident entries: a span of the one array.
func (b *LoadBuffer) set(si int) []LoadEntry {
	lo := si * b.assoc
	return b.entries[lo : lo+int(b.fill[si])]
}

// Insert records an executed load. It returns ok=false only under
// OverflowViolate when the set (and victim space) is full — the caller must
// treat it as an ordering violation and restart from the load's checkpoint.
func (b *LoadBuffer) Insert(e LoadEntry) bool {
	si := b.setIdx(e.Addr)
	if n := int(b.fill[si]); n < b.assoc {
		b.entries[si*b.assoc+n] = e
		b.fill[si]++
		b.occupied[si>>6] |= 1 << (si & 63)
	} else {
		b.overflows++
		if b.policy != OverflowVictim || len(b.victim) >= b.vcap {
			return false
		}
		b.victim = append(b.victim, e)
	}
	b.words.add(e.Addr)
	b.count++
	return true
}

// scan calls fn over every entry matching addr by word. The hardware
// compares every entry of the indexed set and of the victim buffer, and
// EntryCompares counts them all; the simulator skips the comparisons when
// the word filter proves no resident load matches.
func (b *LoadBuffer) scan(addr uint64, fn func(*LoadEntry)) {
	set := b.set(b.setIdx(addr))
	b.entryCmps += uint64(len(set) + len(b.victim))
	if !b.words.mayHold(addr) {
		return
	}
	w := wordAddr(addr)
	for i := range set {
		if wordAddr(set[i].Addr) == w {
			fn(&set[i])
		}
	}
	for i := range b.victim {
		if wordAddr(b.victim[i].Addr) == w {
			fn(&b.victim[i])
		}
	}
}

// StoreCheck is the lookup an internal store performs when it completes (or
// drains from the SRL): find loads younger than the store (load's
// NearestStoreID >= store's index) that consumed data from an older source
// (FwdStoreID < store's index, including NoFwd... which is treated as
// "memory", i.e. older than every store). The oldest such load is a memory
// dependence violation; execution restarts from its checkpoint.
func (b *LoadBuffer) StoreCheck(addr, storeIdx uint64) (Violation, bool) {
	b.lookups++
	var v Violation
	found := false
	b.scan(addr, func(e *LoadEntry) {
		if e.NearestStoreID < storeIdx {
			return // load is older than the store: no dependence
		}
		got := e.FwdStoreID
		violated := false
		if got == NoFwd {
			violated = true // load read memory but should have seen this store
		} else if got < storeIdx {
			violated = true // load forwarded from an older store
		}
		if violated && (!found || e.Seq < v.LoadSeq) {
			found = true
			v = Violation{LoadSeq: e.Seq, LoadPC: e.PC, Ckpt: e.Ckpt}
		}
	})
	return v, found
}

// SnoopCheck is the lookup an external store performs: any matching load is
// a consistency violation; restart from the oldest matching load's
// checkpoint (no order check is needed — Section 3).
func (b *LoadBuffer) SnoopCheck(addr uint64) (Violation, bool) {
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

// CommitCkpt bulk-removes all entries belonging to checkpoint ckpt (the
// checkpoint committed; its loads are architectural). This is the
// checkpoint-bits bulk reset of Section 3.
func (b *LoadBuffer) CommitCkpt(ckpt int) int {
	return b.removeIf(func(e *LoadEntry) bool { return e.Ckpt == ckpt })
}

// SquashYoungerThan removes entries of loads strictly younger than seq: an
// entry survives iff its Seq <= seq. This is the repo-wide squash
// convention (see StoreQueue.SquashYoungerThan); callers restarting at a
// checkpoint whose first sequence number is fromSeq pass fromSeq-1.
func (b *LoadBuffer) SquashYoungerThan(seq uint64) int {
	return b.removeIf(func(e *LoadEntry) bool { return e.Seq > seq })
}

// ForEach visits every resident entry (sets in index order, then the
// victim buffer). For the differential checker's monotonicity sweep.
func (b *LoadBuffer) ForEach(fn func(e *LoadEntry)) {
	for si := range b.fill {
		set := b.set(si)
		for i := range set {
			fn(&set[i])
		}
	}
	for i := range b.victim {
		fn(&b.victim[i])
	}
}

// removeIf drops the entries pred selects from the occupied sets and the
// victim buffer, keeping survivors in their order.
func (b *LoadBuffer) removeIf(pred func(*LoadEntry) bool) int {
	removed := 0
	// keep compacts es's survivors to its front, in order, and returns
	// them. Survivors before the first removed entry are already in place,
	// so a set that loses nothing is read and never rewritten.
	keep := func(es []LoadEntry) []LoadEntry {
		n := 0
		for i := range es {
			if pred(&es[i]) {
				b.words.remove(es[i].Addr)
				removed++
				continue
			}
			if n != i {
				es[n] = es[i]
			}
			n++
		}
		return es[:n]
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
