package lsq

// FC is the Forwarding Cache (Section 4.3): a small set-associative cache
// that miss-independent stores update as they leave the L1 STQ, and from
// which later miss-independent loads forward at L1-hit latency. Its
// contents are temporary: they are discarded when the miss returns and the
// store redo begins, and a restart flash-clears the entries whose producing
// store it squashed, found by that store's sequence number. Using the FC
// instead of the data cache avoids the dirty writebacks, associativity
// stalls and redo-phase re-misses Section 6.5 measures (Figure 10).
//
// Each entry is tagged with the word address and carries the SRL index of
// the producing store, so a load can check the producer is older than
// itself (a single magnitude comparison — no CAM).
type FC struct {
	// entries holds every set in one array: set si is the span set(si)
	// returns, its fill[si] entries from entries[si*assoc], ordered
	// MRU-first.
	entries []fcEntry
	fill    []uint32
	assoc   int
	setMask uint64

	// FaultInvertAge inverts the producer-age eligibility comparison in
	// Lookup (fault injection: lets the checker and fuzzer prove they catch
	// an inverted storeSeq < loadSeq bug). Never set in real runs.
	FaultInvertAge bool

	lookups uint64
	hits    uint64
}

// fcEntry is one resident temporary update. Every resident entry is valid:
// DiscardAll and SquashYoungerThan remove entries rather than mark them.
type fcEntry struct {
	word     uint64
	srlIndex uint64 // producing store's SRL virtual index
	storeSeq uint64
}

// NewFC creates a forwarding cache with the given total entries and
// associativity (the paper evaluates 256 entries, 4-way).
func NewFC(entries, assoc int) *FC {
	nsets := entries / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("lsq: FC set count must be a positive power of two")
	}
	return &FC{entries: make([]fcEntry, nsets*assoc), fill: make([]uint32, nsets), assoc: assoc, setMask: uint64(nsets - 1)}
}

// Lookups and Hits return activity counts for the power model.
func (f *FC) Lookups() uint64 { return f.lookups }
func (f *FC) Hits() uint64    { return f.hits }

func (f *FC) setIdx(addr uint64) int { return int(wordAddr(addr) & f.setMask) }

// set returns set si's resident entries, MRU-first: a span of the one array.
func (f *FC) set(si int) []fcEntry {
	lo := si * f.assoc
	return f.entries[lo : lo+int(f.fill[si])]
}

// Update records a miss-independent store's temporary data. Stores
// normally reach the FC in program order (they leave the L1 STQ in order),
// so the entry holds the youngest store to the word — but a store whose
// data arrives late (an SRL slot reserved at displacement time and filled
// out of order) may update after a younger store to the same word already
// did. The age guard refuses to let such a late, older store clobber the
// younger entry: forwarding from it would silently hand loads stale data.
func (f *FC) Update(addr, srlIndex, storeSeq uint64) {
	w := wordAddr(addr)
	si := f.setIdx(addr)
	set := f.set(si)
	for i := range set {
		if set[i].word == w {
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
	ne := fcEntry{word: w, srlIndex: srlIndex, storeSeq: storeSeq}
	if len(set) < f.assoc {
		f.fill[si]++
		set = f.set(si)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = ne
}

// FCHit describes a successful forwarding lookup.
type FCHit struct {
	SRLIndex uint64
	StoreSeq uint64
}

// Lookup checks whether a load at addr can forward. olderThanSeq restricts
// the producer to stores older than the load in program order; a younger
// producer is ignored (the load falls through to the data cache, and any
// true dependence on an intermediate store is caught later by the load
// buffer during redo).
func (f *FC) Lookup(addr uint64, loadSeq uint64) (FCHit, bool) {
	f.lookups++
	w := wordAddr(addr)
	set := f.set(f.setIdx(addr))
	for i := range set {
		if set[i].word == w {
			older := set[i].storeSeq < loadSeq
			if f.FaultInvertAge {
				older = !older
			}
			if older {
				f.hits++
				return FCHit{SRLIndex: set[i].srlIndex, StoreSeq: set[i].storeSeq}, true
			}
			return FCHit{}, false
		}
	}
	return FCHit{}, false
}

// DiscardAll drops every temporary update (miss returned; redo begins).
func (f *FC) DiscardAll() { clear(f.fill) }

// SquashYoungerThan flash-clears entries produced by stores strictly
// younger than seq: an entry survives iff its producer's storeSeq <= seq.
// This is the repo-wide squash convention (see StoreQueue.SquashYoungerThan);
// callers restarting at a checkpoint whose first sequence number is
// fromSeq pass fromSeq-1.
func (f *FC) SquashYoungerThan(seq uint64) {
	for si := range f.fill {
		set := f.set(si)
		out := set[:0]
		for i := range set {
			if set[i].storeSeq <= seq {
				out = append(out, set[i])
			}
		}
		f.fill[si] = uint32(len(out))
	}
}

// Len returns the number of valid entries (for tests).
func (f *FC) Len() int {
	n := 0
	for _, k := range f.fill {
		n += int(k)
	}
	return n
}
