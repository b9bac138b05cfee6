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
type SRL struct {
	entries []StoreEntry
	base    uint64 // virtual index of entries[head]
	head    int
	count   int

	writes       uint64 // RAM writes (allocate/fill)
	reads        uint64 // RAM reads (drain/indexed forward)
	indexedReads uint64

	// squashScratch backs SquashYoungerThan's returned slice, so squashes
	// allocate nothing in the steady state.
	squashScratch []StoreEntry
}

// NewSRL creates a store redo log with the given capacity (the paper uses
// 1K entries; Figure 7 shows that suffices for all suites).
func NewSRL(capacity int) *SRL {
	return &SRL{entries: make([]StoreEntry, capacity)}
}

// Len, Cap and Full report occupancy.
func (s *SRL) Len() int   { return s.count }
func (s *SRL) Cap() int   { return len(s.entries) }
func (s *SRL) Full() bool { return s.count == len(s.entries) }

// Empty reports whether the SRL holds no stores.
func (s *SRL) Empty() bool { return s.count == 0 }

// Writes, Reads and IndexedReads return RAM activity for the power model.
func (s *SRL) Writes() uint64       { return s.writes }
func (s *SRL) Reads() uint64        { return s.reads }
func (s *SRL) IndexedReads() uint64 { return s.indexedReads }

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
func (s *SRL) Alloc(e StoreEntry) (uint64, bool) {
	if s.Full() {
		return 0, false
	}
	if s.count == 0 {
		s.base = e.SRLIndex
	} else if e.SRLIndex != s.base+uint64(s.count) {
		panic("lsq: SRL allocation out of store-identifier order")
	}
	s.entries[ringSlot(s.head, s.count, len(s.entries))] = e
	s.count++
	s.writes++
	return e.SRLIndex, true
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
// writes its address and data into its pre-allocated slot.
func (s *SRL) Fill(idx uint64, addr uint64, size uint8) bool {
	e := s.Get(idx)
	if e == nil {
		return false
	}
	e.Addr = addr
	e.Size = size
	e.AddrKnown = true
	e.DataReady = true
	s.writes++
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
	return e, true
}

// IndexedRead reads the entry at idx for indexed forwarding (a single RAM
// read plus one external comparator — no CAM).
func (s *SRL) IndexedRead(idx uint64) *StoreEntry {
	s.indexedReads++
	return s.Get(idx)
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
// checkpoint whose first sequence number is fromSeq pass fromSeq-1. It
// returns the removed entries so the caller can decrement LCF counters; the
// returned slice aliases a reusable scratch buffer and is valid only until
// the next SquashYoungerThan call.
func (s *SRL) SquashYoungerThan(seq uint64) []StoreEntry {
	removed := s.squashScratch[:0]
	for s.count > 0 {
		tail := &s.entries[ringSlot(s.head, s.count-1, len(s.entries))]
		if tail.Seq <= seq {
			break
		}
		removed = append(removed, *tail)
		s.count--
	}
	s.squashScratch = removed[:0]
	return removed
}
