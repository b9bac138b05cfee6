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
	// LCFCounted marks an SRL entry whose address has been counted in the
	// loose check filter (so squashes decrement exactly what was added).
	LCFCounted bool
	// Rel marks a store-release: the drain path holds it until every
	// older load has performed (DESIGN.md §12).
	Rel bool
}

func wordAddr(a uint64) uint64 { return a >> 3 }

// overlap reports whether two accesses touch the same 8-byte word. The
// paper's CAM includes byte masks for unaligned/partial matches; at the
// granularity this timing model needs, word overlap is the match condition.
func overlap(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
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
type StoreQueue struct {
	name    string
	entries []StoreEntry // ring, program order
	head    int          // oldest
	count   int
	latency uint64

	searches    uint64 // CAM search operations
	camEntryOps uint64 // per-entry comparisons (power proxy)
	forwards    uint64

	// Reusable result buffers: Search and SquashYoungerThan return slices
	// backed by these, so the steady state allocates nothing. Each is valid
	// only until the next call of the same method on this queue.
	unknownScratch []uint64
	squashScratch  []StoreEntry
}

// NewStoreQueue creates a store queue with capacity entries and the given
// forwarding/search latency in cycles.
func NewStoreQueue(name string, capacity int, latency uint64) *StoreQueue {
	return &StoreQueue{name: name, entries: make([]StoreEntry, capacity), latency: latency}
}

// Latency returns the queue's search/forward latency.
func (q *StoreQueue) Latency() uint64 { return q.latency }

// Len and Cap report occupancy.
func (q *StoreQueue) Len() int { return q.count }
func (q *StoreQueue) Cap() int { return len(q.entries) }

// Full reports whether allocation would fail.
func (q *StoreQueue) Full() bool { return q.count == len(q.entries) }

// Searches and CamEntryOps return CAM activity counts for the power model.
func (q *StoreQueue) Searches() uint64    { return q.searches }
func (q *StoreQueue) CamEntryOps() uint64 { return q.camEntryOps }
func (q *StoreQueue) Forwards() uint64    { return q.forwards }

// Alloc appends a store at the tail, returning the absolute slot index
// (stable until the entry is popped or squashed) and false when full.
func (q *StoreQueue) Alloc(e StoreEntry) (int, bool) {
	if q.Full() {
		return -1, false
	}
	slot := ringSlot(q.head, q.count, len(q.entries))
	q.entries[slot] = e
	q.count++
	return slot, true
}

// Locate returns the entry at the given slot if it still holds sequence
// number seq, else nil. This lets a re-executing store find its entry in
// O(1) without a CAM (the hardware keeps the index with the uop).
func (q *StoreQueue) Locate(slot int, seq uint64) *StoreEntry {
	if slot < 0 || slot >= len(q.entries) {
		return nil
	}
	off := slot - q.head
	if off < 0 {
		off += len(q.entries)
	}
	if off >= q.count {
		return nil
	}
	if q.entries[slot].Seq != seq {
		return nil
	}
	return &q.entries[slot]
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
	q.head = ringSlot(q.head, 1, len(q.entries))
	q.count--
	return e, true
}

// Find returns the entry with sequence number seq, or nil.
func (q *StoreQueue) Find(seq uint64) *StoreEntry {
	for i := 0; i < q.count; i++ {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// Search performs the CAM lookup a load issues: find the youngest store
// older than loadSeq whose address matches (addr, size); report unknown
// older addresses. This is the power-hungry operation the SRL eliminates
// from the secondary level.
func (q *StoreQueue) Search(addr uint64, size uint8, loadSeq uint64) SearchResult {
	q.searches++
	var res SearchResult
	res.UnknownSeqs = q.unknownScratch[:0]
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
		if overlap(e.Addr, e.Size, addr, size) && !res.Hit {
			res.Hit = true
			res.Entry = e
			res.PoisonedMatch = !e.DataReady
			// Older matching stores are shadowed by this one; unknown
			// addresses older than the match can still matter, keep
			// scanning for them only.
		}
	}
	q.unknownScratch = res.UnknownSeqs[:0]
	if len(res.UnknownSeqs) == 0 {
		res.UnknownSeqs = nil
	}
	if res.Hit {
		q.forwards++
	}
	return res
}

// SquashYoungerThan removes all entries strictly younger than seq: an
// entry survives iff its Seq <= seq. This exclusive boundary is the
// repo-wide squash convention — every SquashYoungerThan in this package
// (StoreQueue, SRL, FC, LoadBuffer, OrderTracker) keeps seq itself and
// removes Seq > seq, and a caller restarting at a checkpoint whose first
// sequence number is fromSeq passes fromSeq-1. The removed entries are
// returned (youngest first) so the caller can maintain side structures
// such as the MTB. The returned slice aliases a per-queue scratch buffer
// and is valid only until this queue's next SquashYoungerThan call.
func (q *StoreQueue) SquashYoungerThan(seq uint64) []StoreEntry {
	removed := q.squashScratch[:0]
	for q.count > 0 {
		tail := q.at(q.count - 1)
		if tail.Seq <= seq {
			break
		}
		removed = append(removed, *tail)
		q.count--
	}
	q.squashScratch = removed[:0]
	return removed
}

// --- Membership Test Buffer (hierarchical design) ---

// MTB is the Membership Test Buffer of the hierarchical store queue: a
// counting filter that answers "might the L2 STQ hold a store to this
// address?", saving L2 STQ searches (and their power) on misses.
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

// Add records a store address entering the L2 STQ.
func (m *MTB) Add(addr uint64) { m.counters[m.idx(addr)]++ }

// Remove records a store address leaving the L2 STQ.
func (m *MTB) Remove(addr uint64) {
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

// Reset clears all counters (used on full-window squash).
func (m *MTB) Reset() {
	for i := range m.counters {
		m.counters[i] = 0
	}
}
