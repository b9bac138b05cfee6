package lsq

// HashKind selects the LCF index hash function (Section 6.4).
type HashKind int

const (
	// HashLAB indexes with the lower address bits.
	HashLAB HashKind = iota
	// Hash3PAX indexes with the XOR of the lower, middle and upper address
	// bit fields ("3-Piece Address XOR").
	Hash3PAX
)

// String names the hash for reports.
func (h HashKind) String() string {
	if h == Hash3PAX {
		return "3-PAX"
	}
	return "LAB"
}

// LCF is the Loose Check Filter (Section 4.3): a direct-mapped, non-tagged
// array of 6-bit counters indexed by a hash of the memory address — a
// counting Bloom filter over the SRL's contents. A zero counter proves no
// store to the address is in the SRL, so a load may issue safely during the
// redo phase. Each entry also stores the SRL index of the last matching
// store inserted, enabling indexed forwarding without a CAM. The SRL it is
// built into (NewSRL) is the only writer of its counters.
type LCF struct {
	count     []uint8
	lastIndex []uint64
	sticky    []bool // saturated by an unrefusable insert; ignores dec
	bits      uint   // log2(entries)
	hash      HashKind
	maxCount  uint8

	probes    uint64
	hitsNZ    uint64 // probes finding a non-zero counter
	overflows uint64 // increments refused (counter saturated)
	muts      uint64 // inc, incSticky, dec and reset calls
	// dirty is false while no inc or incSticky has landed since the last
	// reset: every array is still zero, so reset has nothing to clear.
	dirty bool
}

// NewLCF creates a loose check filter with entries counters (power of two)
// using the given hash. counterBits is the counter width (the paper uses 6).
func NewLCF(entries int, hash HashKind, counterBits uint) *LCF {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lsq: LCF entries must be a positive power of two")
	}
	bits := uint(0)
	for 1<<bits < entries {
		bits++
	}
	return &LCF{
		count:     make([]uint8, entries),
		lastIndex: make([]uint64, entries),
		sticky:    make([]bool, entries),
		bits:      bits,
		hash:      hash,
		maxCount:  uint8(1<<counterBits - 1),
	}
}

// Entries returns the number of counters.
func (f *LCF) Entries() int { return len(f.count) }

// Mutations returns the count of inc, incSticky, dec and reset calls; a
// reader that saw the same count before would Peek the same answers.
func (f *LCF) Mutations() uint64 { return f.muts }

// Probes, NonZeroHits and Overflows return activity counts.
func (f *LCF) Probes() uint64      { return f.probes }
func (f *LCF) NonZeroHits() uint64 { return f.hitsNZ }
func (f *LCF) Overflows() uint64   { return f.overflows }

func (f *LCF) idx(addr uint64) uint64 {
	w := wordAddr(addr)
	mask := uint64(1)<<f.bits - 1
	switch f.hash {
	case Hash3PAX:
		return (w ^ (w >> f.bits) ^ (w >> (2 * f.bits))) & mask
	default: // HashLAB
		return w & mask
	}
}

// inc records a store entering the SRL, remembering its SRL index for
// indexed forwarding. It returns false when the counter is saturated, in
// which case the SRL refuses the allocation (the paper's overflow rule).
//
// lastIndex must point at the *youngest* counted store mapping to the
// entry: indexed forwarding assumes it. Stores usually enter the SRL in
// program order, but a reserved slot filled out of order counts late — so
// lastIndex only moves forward (SRL virtual indices are monotonic in
// program order). The one exception is the 0→1 transition, where the
// stored index belongs to an already-drained store and must be replaced
// unconditionally.
func (f *LCF) inc(addr uint64, srlIndex uint64) bool {
	f.muts++
	f.dirty = true
	i := f.idx(addr)
	if f.count[i] == f.maxCount {
		f.overflows++
		return false
	}
	f.count[i]++
	if f.count[i] == 1 || srlIndex > f.lastIndex[i] {
		f.lastIndex[i] = srlIndex
	}
	return true
}

// incSticky records a store that cannot be refused — a reserved SRL slot
// filled late, after its address resolves. Where inc stalls allocation on a
// saturated counter, a late fill has no stall option: the slot is already
// allocated in program order. A saturated counter therefore pins at its
// maximum ("sticky") and ignores decrements from then on — once it has
// absorbed more inserts than it can count, any decrement could zero it
// while matching stores remain in the SRL, breaking the filter's
// no-false-negatives guarantee. Sticky state clears when the SRL empties
// and the SRL resets the filter (every counter is provably zero then).
func (f *LCF) incSticky(addr uint64, srlIndex uint64) {
	f.muts++
	f.dirty = true
	i := f.idx(addr)
	if f.count[i] >= f.maxCount {
		f.count[i] = f.maxCount
		f.sticky[i] = true
		f.overflows++
	} else {
		f.count[i]++
	}
	if f.count[i] == 1 || srlIndex > f.lastIndex[i] {
		f.lastIndex[i] = srlIndex
	}
}

// dec records a store leaving the SRL (redo drain or squash). A sticky
// counter (see incSticky) absorbs the decrement: its true population is
// unknown, so it must stay conservatively non-zero until reset.
func (f *LCF) dec(addr uint64) {
	f.muts++
	i := f.idx(addr)
	if f.sticky[i] {
		return
	}
	if f.count[i] > 0 {
		f.count[i]--
	}
}

// Probe checks whether a load at addr may have a matching store in the SRL.
// A zero count guarantees it does not; a non-zero count also returns the
// SRL index of the last matching store inserted, for indexed forwarding.
func (f *LCF) Probe(addr uint64) (mayMatch bool, lastSRLIndex uint64) {
	f.probes++
	i := f.idx(addr)
	if f.count[i] == 0 {
		return false, 0
	}
	f.hitsNZ++
	return true, f.lastIndex[i]
}

// Peek is Probe without activity accounting, for re-examining an
// already-stalled load (the hardware holds the load in a wait buffer and
// wakes it; it does not re-probe the filter every cycle).
func (f *LCF) Peek(addr uint64) (mayMatch bool, lastSRLIndex uint64) {
	i := f.idx(addr)
	if f.count[i] == 0 {
		return false, 0
	}
	return true, f.lastIndex[i]
}

// reset clears every counter and all sticky state. Sound whenever the SRL
// is empty (episode end, full squash): an empty SRL means every counter's
// true population is zero.
func (f *LCF) reset() {
	f.muts++
	if !f.dirty {
		return
	}
	f.dirty = false
	clear(f.count)
	clear(f.lastIndex)
	clear(f.sticky)
}

// SizeBytes returns the storage footprint: the paper's 2K-entry LCF stores
// a 10-bit SRL index plus a 6-bit counter per entry = 2 bytes.
func (f *LCF) SizeBytes() int { return len(f.count) * 2 }
