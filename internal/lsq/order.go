package lsq

import "math/bits"

// OrderTracker is the write-after-read bit array of Section 4.3: the store
// at the SRL head may update the cache during redo only after all loads
// before it in program order have executed. A load sets its bit at
// allocate and clears it at completion; the head store's question, "have
// all loads older than seq executed?", is whether any bit below seq is
// still set.
//
// The array is a ring indexed by sequence number, one bit per window slot.
// Outstanding loads are in the window, whose sequence numbers are dense,
// so they span fewer sequence numbers than the ring has bits and never
// alias. oldest is kept on the oldest outstanding load at every change,
// not only when queried, so it answers the question in O(1); newest bounds
// the outstanding loads from above for squashes and the span check.
//
// A load may be allocated, squashed by a checkpoint restart, and allocated
// again with the same sequence number; setting a set bit or clearing a
// clear one changes nothing, so replays need no bookkeeping of their own.
//
// Nothing here is specific to loads: the core keeps a second tracker over
// fences and load-acquires, whose oldest outstanding entry is the sync
// operation younger accesses wait behind.
type OrderTracker struct {
	bits   []uint64 // bit seq&(64*len(bits)-1); len(bits) is a power of two
	count  int      // set bits: loads allocated and not completed
	oldest uint64   // lowest outstanding sequence number (when count > 0)
	newest uint64   // no outstanding sequence number is above it (when count > 0)
}

// NewOrderTracker returns an empty tracker for outstanding loads spanning
// fewer than span sequence numbers — the instruction window's capacity.
func NewOrderTracker(span int) *OrderTracker {
	words := 1
	for words*64 < span {
		words *= 2
	}
	return &OrderTracker{bits: make([]uint64, words)}
}

// word returns the index of seq's word in the ring.
func (t *OrderTracker) word(seq uint64) int {
	return int(seq>>6) & (len(t.bits) - 1)
}

// has reports whether load seq is outstanding.
func (t *OrderTracker) has(seq uint64) bool {
	return t.count > 0 && seq >= t.oldest && seq <= t.newest &&
		t.bits[t.word(seq)]&(1<<(seq&63)) != 0
}

// LoadAllocated records a load entering the window (its bit is set).
func (t *OrderTracker) LoadAllocated(seq uint64) {
	switch {
	case t.count == 0:
		t.oldest, t.newest = seq, seq
	case seq < t.oldest:
		t.checkSpan(seq, t.newest)
		t.oldest = seq
	case seq > t.newest:
		t.checkSpan(t.oldest, seq)
		t.newest = seq
	case t.has(seq):
		return
	}
	t.bits[t.word(seq)] |= 1 << (seq & 63)
	t.count++
}

func (t *OrderTracker) checkSpan(lo, hi uint64) {
	if hi-lo >= uint64(64*len(t.bits)) {
		panic("lsq: outstanding loads span more sequence numbers than the order tracker holds")
	}
}

// LoadCompleted records a load finishing execution (its bit clears).
func (t *OrderTracker) LoadCompleted(seq uint64) {
	if !t.has(seq) {
		return
	}
	t.bits[t.word(seq)] &^= 1 << (seq & 63)
	t.count--
	if t.count > 0 && seq == t.oldest {
		t.oldest = t.nextSet(seq + 1)
	}
}

// nextSet returns the lowest outstanding sequence number at or above from;
// one must exist.
func (t *OrderTracker) nextSet(from uint64) uint64 {
	w := t.word(from)
	base := from &^ 63
	m := t.bits[w] &^ (1<<(from&63) - 1)
	for m == 0 {
		base += 64
		w = (w + 1) & (len(t.bits) - 1)
		m = t.bits[w]
	}
	return base + uint64(bits.TrailingZeros64(m))
}

// AllLoadsOlderThanDone reports whether every load strictly older than seq
// has completed — the SRL head store's drain condition (loads and stores
// never share a sequence number, so the boundary case is moot in practice).
func (t *OrderTracker) AllLoadsOlderThanDone(seq uint64) bool {
	return t.count == 0 || t.oldest >= seq
}

// Oldest returns the lowest outstanding sequence number; ok is false when
// nothing is outstanding.
func (t *OrderTracker) Oldest() (seq uint64, ok bool) {
	return t.oldest, t.count > 0
}

// Outstanding returns the number of loads allocated but not completed.
func (t *OrderTracker) Outstanding() int { return t.count }

// SquashYoungerThan discards outstanding loads strictly younger than seq:
// a load survives iff its Seq <= seq, so its bit keeps gating the SRL head.
// This is the repo-wide squash convention (see StoreQueue.SquashYoungerThan);
// callers restarting at a checkpoint whose first sequence number is fromSeq
// pass fromSeq-1.
func (t *OrderTracker) SquashYoungerThan(seq uint64) {
	if t.count == 0 || seq >= t.newest {
		return
	}
	from := t.oldest
	if seq >= from {
		from = seq + 1
	}
	// Clear bits from..newest a word at a time.
	for lo := from; lo <= t.newest; lo = lo&^63 + 64 {
		m := ^uint64(0) << (lo & 63)
		if t.newest-lo < 64-lo&63 {
			m &= ^uint64(0) >> (63 - t.newest&63)
		}
		w := t.word(lo)
		t.count -= bits.OnesCount64(t.bits[w] & m)
		t.bits[w] &^= m
	}
	t.newest = seq
}

// Reset clears the tracker (full squash).
func (t *OrderTracker) Reset() {
	clear(t.bits)
	t.count = 0
}
