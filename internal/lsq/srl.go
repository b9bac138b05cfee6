package lsq

// SRL is the Store Redo Log (Section 4): a first-in first-out structure
// recording, in program order, every store in the shadow of a long-latency
// miss. It has no CAM and no search; its only access modes are allocate at
// the tail, fill by index (a miss-dependent store writing its address and
// data after slice re-execution), read/pop at the head (redo drain), and
// indexed read (indexed forwarding via the LCF's stored index).
//
// Store identifiers: the hardware uses the SRL entry index plus a
// wrap-around bit so the relative program order of two stores is a single
// magnitude comparison. This model uses a monotonically increasing 64-bit
// virtual index with a ring buffer underneath, which has identical
// comparison semantics and never wraps in practice.
//
// A log built with a Loose Check Filter keeps it exact: every entry whose
// address and data are in the log is counted (LCFCounted), an entry that
// leaves is uncounted, and the filter is reset whenever the log empties.
type SRL struct {
	entries []StoreEntry
	base    uint64 // virtual index of entries[head]
	head    int
	count   int
	lcf     *LCF // the filter over the log's contents, or nil

	writes uint64 // RAM writes (allocate/fill)
	reads  uint64 // RAM reads (drain)

	// muts moves on every Alloc, Fill, PopHead and squash: every change of
	// the log's occupancy or of an entry's address and data.
	muts uint64
}

// NewSRL creates a store redo log with the given capacity (the paper uses
// 1K entries; Figure 7 shows that suffices for all suites). lcf, when not
// nil, is the Loose Check Filter that summarizes this log.
func NewSRL(capacity int, lcf *LCF) *SRL {
	return &SRL{entries: make([]StoreEntry, capacity), lcf: lcf}
}

// Len, Cap and Full report occupancy.
func (s *SRL) Len() int   { return s.count }
func (s *SRL) Cap() int   { return len(s.entries) }
func (s *SRL) Full() bool { return s.count == len(s.entries) }

// Empty reports whether the SRL holds no stores.
func (s *SRL) Empty() bool { return s.count == 0 }

// Writes and Reads return RAM activity for the power model.
func (s *SRL) Writes() uint64 { return s.writes }
func (s *SRL) Reads() uint64  { return s.reads }

// Mutations returns the count of Alloc, Fill, PopHead and squash calls; a
// reader that saw the same count before has seen the same head, base and
// entry addresses and data (writes made through Get's pointer to other
// fields are not counted).
func (s *SRL) Mutations() uint64 { return s.muts }

// HeadIndex returns the virtual index of the oldest entry (valid only when
// non-empty).
func (s *SRL) HeadIndex() uint64 { return s.base }

// Alloc appends a store at the tail. The entry's SRLIndex must already be
// set to the store's identifier (its global allocation order): stores enter
// the SRL strictly in program order, so within one occupancy run the
// identifiers are consecutive; when the SRL is empty the base resets to the
// new entry's identifier. For a miss-independent store the entry carries
// address+data (DataReady=true); for a miss-dependent store only the slot
// is reserved (DataReady=false) and the index is recorded with the store in
// the SDB for the later Fill.
//
// Alloc returns false, changing nothing, when the log is full or when the
// LCF counter a data-ready entry maps to is saturated: the paper's overflow
// rule stalls SRL allocation until the counter drains.
func (s *SRL) Alloc(e StoreEntry) bool {
	if s.Full() {
		return false
	}
	if s.count > 0 && e.SRLIndex != s.base+uint64(s.count) {
		panic("lsq: SRL allocation out of store-identifier order")
	}
	e.LCFCounted = false
	if e.DataReady && s.lcf != nil {
		if !s.lcf.inc(e.Addr, e.SRLIndex) {
			return false
		}
		e.LCFCounted = true
	}
	if s.count == 0 {
		s.base = e.SRLIndex
	}
	s.entries[ringSlot(s.head, s.count, len(s.entries))] = e
	s.count++
	s.writes++
	s.muts++
	return true
}

// Get returns the entry at virtual index idx, or nil if it is no longer
// (or not yet) resident.
func (s *SRL) Get(idx uint64) *StoreEntry {
	if idx < s.base || idx >= s.base+uint64(s.count) {
		return nil
	}
	return &s.entries[ringSlot(s.head, int(idx-s.base), len(s.entries))]
}

// Fill completes a reserved entry: the re-executed miss-dependent store
// writes its address and data into its pre-allocated slot. The slot was
// allocated before the address was known, so a saturated LCF counter
// cannot refuse the count the way Alloc does; it pins sticky instead
// (see LCF.incSticky).
func (s *SRL) Fill(idx uint64, addr uint64, size uint8) bool {
	e := s.Get(idx)
	if e == nil {
		return false
	}
	e.Addr = addr
	e.Size = size
	e.AddrKnown = true
	e.DataReady = true
	if s.lcf != nil {
		s.lcf.incSticky(addr, idx)
		e.LCFCounted = true
	}
	s.writes++
	s.muts++
	return true
}

// Head returns the oldest entry without removing it.
func (s *SRL) Head() *StoreEntry {
	if s.count == 0 {
		return nil
	}
	return &s.entries[s.head]
}

// PopHead removes and returns the oldest entry (one redo cache update).
func (s *SRL) PopHead() (StoreEntry, bool) {
	if s.count == 0 {
		return StoreEntry{}, false
	}
	e := s.entries[s.head]
	s.head = ringSlot(s.head, 1, len(s.entries))
	s.base++
	s.count--
	s.reads++
	s.muts++
	s.uncount(&e)
	s.resetFilterIfEmpty()
	return e, true
}

// uncount removes a departing entry from the LCF.
func (s *SRL) uncount(e *StoreEntry) {
	if e.LCFCounted && s.lcf != nil {
		s.lcf.dec(e.Addr)
	}
}

// resetFilterIfEmpty resets the LCF once the log holds nothing: every
// counter's true population is zero then, and the reset is what releases
// sticky-saturated counters.
func (s *SRL) resetFilterIfEmpty() {
	if s.count == 0 && s.lcf != nil {
		s.lcf.reset()
	}
}

// ForEach visits resident entries oldest-first, passing each entry's
// position from the head (virtual index = HeadIndex()+i). For the
// differential checker's FIFO/coverage sweeps.
func (s *SRL) ForEach(fn func(i int, e *StoreEntry)) {
	for i := 0; i < s.count; i++ {
		fn(i, &s.entries[ringSlot(s.head, i, len(s.entries))])
	}
}

// SquashYoungerThan removes entries strictly younger than seq from the
// tail: an entry survives iff its Seq <= seq. This is the repo-wide squash
// convention (see StoreQueue.SquashYoungerThan); callers restarting at a
// checkpoint whose first sequence number is fromSeq pass fromSeq-1. The
// removed entries leave the LCF.
func (s *SRL) SquashYoungerThan(seq uint64) {
	s.muts++
	for s.count > 0 {
		tail := &s.entries[ringSlot(s.head, s.count-1, len(s.entries))]
		if tail.Seq <= seq {
			break
		}
		s.uncount(tail)
		s.count--
	}
	s.resetFilterIfEmpty()
}
