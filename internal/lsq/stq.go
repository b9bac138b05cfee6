// Package lsq implements every load/store processing structure the paper
// discusses: the small fast L1 store queue (an age-ordered CAM with
// forwarding), the large single-level "ideal" store queue, the hierarchical
// two-level store queue with its Membership Test Buffer (Akkary et al.), and
// the paper's proposal — the Store Redo Log (SRL), the Loose Check Filter
// (LCF), the Forwarding Cache (FC), indexed forwarding, the write-after-read
// order tracker, and the set-associative secondary load buffer.
//
// All structures are timing models: they track addresses, program order and
// occupancy, and count the CAM/RAM activity that the power model (package
// power) converts into energy. Data values are not simulated; forwarding
// correctness is resolved by address and age, exactly the information the
// hardware comparators use.
package lsq

// StoreEntry is one store's record in a store queue or the SRL.
type StoreEntry struct {
	Seq       uint64 // program-order sequence number
	PC        uint64
	Addr      uint64
	Size      uint8
	AddrKnown bool // address has been computed (store has issued)
	DataReady bool // data value captured (not poisoned / slice returned)
	Ckpt      int  // owning checkpoint
	SRLIndex  uint64
	// LCFCounted marks an SRL entry whose address the SRL has counted in
	// its loose check filter, so a drain or squash uncounts exactly what
	// was counted.
	LCFCounted bool
	// Rel marks a store-release: the drain path holds it until every
	// older load has performed (DESIGN.md §12).
	Rel bool
}

func wordAddr(a uint64) uint64 { return a >> 3 }

// overlap reports whether two accesses touch the same 8-byte word. The
// paper's CAM includes byte masks for unaligned/partial matches; this
// package matches whole words everywhere (store queue searches, load-buffer
// checks, the FC and the LCF), so access sizes take no part in a match.
func overlap(a1, a2 uint64) bool {
	return wordAddr(a1) == wordAddr(a2)
}

// SearchResult is the outcome of a load's store-queue search.
type SearchResult struct {
	// Hit is true when an older matching store with known address exists.
	Hit bool
	// Entry is the youngest such store (the forwarding source).
	Entry *StoreEntry
	// UnknownOlder is true when at least one older store has an unknown
	// address — the load might depend on it (consult the dependence
	// predictor).
	UnknownOlder bool
	// UnknownSeqs lists the sequence numbers of those unknown-address
	// older stores, youngest first. The slice aliases a per-queue scratch
	// buffer and is valid only until the queue's next Search call.
	UnknownSeqs []uint64
	// PoisonedMatch is true when the matching store's data is not ready
	// (a miss-dependent store): the load must join the slice.
	PoisonedMatch bool
}

// StoreQueue is an age-ordered store queue with a fully associative search
// (a CAM): the conventional L1 STQ, and — at larger sizes — the "ideal"
// single-level store queue of Figure 6 and the L2 STQ of the hierarchical
// design.
//
// The simulator does not walk the CAM to answer a search. Two indexes,
// kept by every method that changes an entry's address state, answer it:
// a word filter over the known-address entries, whose zero count proves no
// resident store matches, and the seq-ordered list of unknown-address
// entries. The power model still sees every comparator fire (camEntryOps
// counts each entry older than the load), because the hardware CAM does.
//
// A queue built with a Membership Test Buffer keeps it beside the word
// filter: the MTB counts exactly the queue's known-address entries, as
// the hardware's allocate, resolve, drain and squash ports update it.
type StoreQueue struct {
	entries []StoreEntry // ring, program order
	head    int          // oldest
	count   int

	known   wordFilter // words of the entries with AddrKnown set
	unknown []uint64   // Seqs of the entries with AddrKnown clear, oldest first
	mtb     *MTB       // the same entries' membership filter, or nil

	searches    uint64 // CAM search operations
	camEntryOps uint64 // per-entry comparisons (power proxy)

	// unknownScratch backs Search's UnknownSeqs, so the steady state
	// allocates nothing; it is valid only until the queue's next Search.
	unknownScratch []uint64
}

// NewStoreQueue creates a store queue with capacity entries. mtb, when
// not nil, is the Membership Test Buffer that summarizes this queue.
func NewStoreQueue(capacity int, mtb *MTB) *StoreQueue {
	return &StoreQueue{entries: make([]StoreEntry, capacity), known: newWordFilter(capacity), mtb: mtb}
}

// Len and Cap report occupancy.
func (q *StoreQueue) Len() int { return q.count }
func (q *StoreQueue) Cap() int { return len(q.entries) }

// Full reports whether allocation would fail.
func (q *StoreQueue) Full() bool { return q.count == len(q.entries) }

// Searches and CamEntryOps return CAM activity counts for the power model.
func (q *StoreQueue) Searches() uint64    { return q.searches }
func (q *StoreQueue) CamEntryOps() uint64 { return q.camEntryOps }

// UnknownAddrs returns how many resident entries have no address yet.
func (q *StoreQueue) UnknownAddrs() int { return len(q.unknown) }

// index records an entry entering the queue in the address indexes and
// the MTB; unindex records one leaving them. Entries enter at the tail, so
// an unknown Seq is the youngest of the list.
func (q *StoreQueue) index(e *StoreEntry) {
	if !e.AddrKnown {
		q.unknown = append(q.unknown, e.Seq)
		return
	}
	q.known.add(e.Addr)
	if q.mtb != nil {
		q.mtb.add(e.Addr)
	}
}

func (q *StoreQueue) unindex(e *StoreEntry) {
	if e.AddrKnown {
		q.known.remove(e.Addr)
		if q.mtb != nil {
			q.mtb.remove(e.Addr)
		}
		return
	}
	i := q.unknownPos(e.Seq)
	if i == len(q.unknown) || q.unknown[i] != e.Seq {
		panic("lsq: store queue entry missing from its unknown-address list")
	}
	q.unknown = append(q.unknown[:i], q.unknown[i+1:]...)
}

// unknownPos returns the position of seq in the unknown list, or of the
// first Seq after it: a binary search, as the list is in program order,
// after a look at both ends, where loads and pops usually land.
func (q *StoreQueue) unknownPos(seq uint64) int {
	n := len(q.unknown)
	if n == 0 || q.unknown[n-1] < seq {
		return n
	}
	if q.unknown[0] >= seq {
		return 0
	}
	lo, hi := 1, n-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.unknown[m] < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Resolve records a resident entry's computed address: the store has
// executed (or its address operand arrived). Every address change of a
// queued entry goes through here, so the indexes Search reads stay exact.
func (q *StoreQueue) Resolve(e *StoreEntry, addr uint64, size uint8) {
	q.unindex(e)
	e.AddrKnown, e.Addr, e.Size = true, addr, size
	q.index(e)
}

// Alloc appends a store at the tail; it returns false when the queue is
// full.
func (q *StoreQueue) Alloc(e StoreEntry) bool {
	if q.Full() {
		return false
	}
	slot := ringSlot(q.head, q.count, len(q.entries))
	q.entries[slot] = e
	q.count++
	q.index(&q.entries[slot])
	return true
}

// Find returns the resident entry with sequence number seq, or nil once
// the store has left the queue (or never entered it). The ring is in
// program order, so the entry sits at the boundary olderThan finds.
func (q *StoreQueue) Find(seq uint64) *StoreEntry {
	if i := q.olderThan(seq); i < q.count {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// ringSlot maps offset i from head (0 <= i <= n) to its slot in a ring of
// n entries. A conditional subtract stands in for %: the 48-entry queue of
// Table 1 is not a power of two, so no mask would do, and a division per
// access showed in profiles.
func ringSlot(head, i, n int) int {
	if j := head + i; j < n {
		return j
	}
	return head + i - n
}

// at returns the i-th entry from the head (0 = oldest).
func (q *StoreQueue) at(i int) *StoreEntry {
	return &q.entries[ringSlot(q.head, i, len(q.entries))]
}

// Head returns the oldest entry, or nil when empty.
func (q *StoreQueue) Head() *StoreEntry {
	if q.count == 0 {
		return nil
	}
	return q.at(0)
}

// PopHead removes and returns the oldest entry.
func (q *StoreQueue) PopHead() (StoreEntry, bool) {
	if q.count == 0 {
		return StoreEntry{}, false
	}
	e := *q.at(0)
	q.unindex(&e)
	q.head = ringSlot(q.head, 1, len(q.entries))
	q.count--
	return e, true
}

// Search performs the CAM lookup a load issues: find the youngest store
// older than loadSeq whose address matches addr's word; report unknown
// older addresses. This is the power-hungry operation the SRL eliminates
// from the secondary level. Every entry older than the load counts as one
// comparison, as in the hardware; the simulator itself walks the entries
// only when the word filter cannot rule a match out, and stops at the
// youngest match.
func (q *StoreQueue) Search(addr, loadSeq uint64) SearchResult {
	q.searches++
	older := q.olderThan(loadSeq)
	q.camEntryOps += uint64(older)
	var res SearchResult
	if n := q.unknownPos(loadSeq); n > 0 {
		seqs := q.unknownScratch[:0]
		for i := n - 1; i >= 0; i-- { // youngest first
			seqs = append(seqs, q.unknown[i])
		}
		q.unknownScratch = seqs[:0]
		res.UnknownOlder, res.UnknownSeqs = true, seqs
	}
	if !q.known.mayHold(addr) {
		return res
	}
	for i := older - 1; i >= 0; i-- { // youngest first
		if e := q.at(i); e.AddrKnown && overlap(e.Addr, addr) {
			res.Hit, res.Entry, res.PoisonedMatch = true, e, !e.DataReady
			break
		}
	}
	return res
}

// olderThan returns how many entries are older than seq. The ring is in
// program order, so the boundary is found by galloping back from the
// youngest entry — a load usually has few younger stores, often none — and
// then by a binary search inside the bracket found.
func (q *StoreQueue) olderThan(seq uint64) int {
	lo, hi := 0, q.count // entries from hi on are not older than seq
	for step := 1; hi > lo; step <<= 1 {
		i := max(hi-step, 0)
		if q.at(i).Seq < seq {
			lo = i + 1
			break
		}
		hi = i
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.at(m).Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// SquashYoungerThan removes all entries strictly younger than seq: an
// entry survives iff its Seq <= seq. This exclusive boundary is the
// repo-wide squash convention — every SquashYoungerThan in this package
// (StoreQueue, SRL, FC, LoadBuffer, OrderTracker) keeps seq itself and
// removes Seq > seq, and a caller restarting at a checkpoint whose first
// sequence number is fromSeq passes fromSeq-1. The removed entries leave
// the address indexes and the MTB.
func (q *StoreQueue) SquashYoungerThan(seq uint64) {
	for q.count > 0 {
		tail := q.at(q.count - 1)
		if tail.Seq <= seq {
			break
		}
		q.unindex(tail)
		q.count--
	}
}

// --- Membership Test Buffer (hierarchical design) ---

// MTB is the Membership Test Buffer of the hierarchical store queue: a
// counting filter that answers "might the L2 STQ hold a store to this
// address?", saving L2 STQ searches (and their power) on misses. The store
// queue it summarizes keeps it (NewStoreQueue); it counts that queue's
// known-address entries.
type MTB struct {
	counters []uint16
	mask     uint64
	probes   uint64
	maybes   uint64
}

// NewMTB creates a membership test buffer with entries counters (power of
// two).
func NewMTB(entries int) *MTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lsq: MTB entries must be a positive power of two")
	}
	return &MTB{counters: make([]uint16, entries), mask: uint64(entries - 1)}
}

func (m *MTB) idx(addr uint64) uint64 { return wordAddr(addr) & m.mask }

// add records a known store address entering the queue; remove records
// one leaving it.
func (m *MTB) add(addr uint64) { m.counters[m.idx(addr)]++ }

func (m *MTB) remove(addr uint64) {
	if m.counters[m.idx(addr)] > 0 {
		m.counters[m.idx(addr)]--
	}
}

// MightContain reports whether the L2 STQ may hold a matching store.
func (m *MTB) MightContain(addr uint64) bool {
	m.probes++
	if m.counters[m.idx(addr)] > 0 {
		m.maybes++
		return true
	}
	return false
}

// Probes and Maybes return filter activity for the power model.
func (m *MTB) Probes() uint64 { return m.probes }
func (m *MTB) Maybes() uint64 { return m.maybes }
