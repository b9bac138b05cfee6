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
	sets    [][]fcEntry
	assoc   int
	setMask uint64

	// FaultInvertAge inverts the producer-age eligibility comparison in
	// Lookup (fault injection: lets the checker and fuzzer prove they catch
	// an inverted storeSeq < loadSeq bug). Never set in real runs.
	FaultInvertAge bool

	lookups uint64
	hits    uint64
}

type fcEntry struct {
	valid    bool
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
	f := &FC{sets: make([][]fcEntry, nsets), assoc: assoc, setMask: uint64(nsets - 1)}
	for i := range f.sets {
		f.sets[i] = make([]fcEntry, 0, assoc)
	}
	return f
}

// Lookups and Hits return activity counts for the power model.
func (f *FC) Lookups() uint64 { return f.lookups }
func (f *FC) Hits() uint64    { return f.hits }

func (f *FC) set(addr uint64) int { return int(wordAddr(addr) & f.setMask) }

// Update records a miss-independent store's temporary data. Stores
// normally reach the FC in program order (they leave the L1 STQ in order),
// so the entry holds the youngest store to the word — but a store whose
// data arrives late (an SRL slot reserved at displacement time and filled
// out of order) may update after a younger store to the same word already
// did. The age guard refuses to let such a late, older store clobber the
// younger entry: forwarding from it would silently hand loads stale data.
func (f *FC) Update(addr, srlIndex, storeSeq uint64) {
	w := wordAddr(addr)
	si := f.set(addr)
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
	ne := fcEntry{valid: true, word: w, srlIndex: srlIndex, storeSeq: storeSeq}
	if len(set) < f.assoc {
		f.sets[si] = append(set, fcEntry{})
		set = f.sets[si]
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
	set := f.sets[f.set(addr)]
	for i := range set {
		if set[i].valid && set[i].word == w {
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
func (f *FC) DiscardAll() {
	for i := range f.sets {
		f.sets[i] = f.sets[i][:0]
	}
}

// SquashYoungerThan flash-clears entries produced by stores strictly
// younger than seq: an entry survives iff its producer's storeSeq <= seq.
// This is the repo-wide squash convention (see StoreQueue.SquashYoungerThan);
// callers restarting at a checkpoint whose first sequence number is
// fromSeq pass fromSeq-1.
func (f *FC) SquashYoungerThan(seq uint64) {
	for si := range f.sets {
		set := f.sets[si]
		out := set[:0]
		for i := range set {
			if set[i].valid && set[i].storeSeq <= seq {
				out = append(out, set[i])
			}
		}
		f.sets[si] = out
	}
}

// Len returns the number of valid entries (for tests).
func (f *FC) Len() int {
	n := 0
	for i := range f.sets {
		n += len(f.sets[i])
	}
	return n
}
