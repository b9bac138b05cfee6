package core

// readyList is the scheduler's ready set: an array kept sorted by sequence
// number, oldest first, as a select array is in hardware. The issue stage
// scans it from the front each cycle and takes what the issue width and
// the load and store ports allow; a store blocked on its port keeps its
// place for the next cycle instead of leaving and re-entering.
//
// A load blocked on its port whose sources are all done moves to a second
// sorted lane, the park lane, and its uop is marked parked (issue() keeps
// any other load in place). The scan merges the two lanes oldest first
// but visits the park lane only while a load port is free, so a cycle
// whose port is taken passes over every parked load without touching it,
// and one whose port is free visits them up to the first that issues. A
// parked load's sources are done and its memory dependence is done or
// gone, and neither changes until it issues or is squashed, so each visit
// the lane saves would only have kept the entry in place (or dropped a
// stale one): the merged order is the single list's order.
//
// Entries are inserted lazily, like the heap this list replaced: a uop may
// hold several entries (one per wake-up), and a squash leaves its entries in
// place under the old epoch. The scan drops every such copy it reaches
// without spending issue bandwidth; a stale park-lane entry waits for the
// next scan that reaches it. Entries with equal keys stay in push order,
// and a park-lane entry was pushed before any main-lane entry with its key.
//
// During a scan (begin … end) the main lane is compacted in place: s[:w]
// holds the entries kept so far, s[w:r] is free, and s[r:] is still
// unscanned. Pushes made by the uops the scan executes — consumers woken
// by a drain into the slice data buffer, always younger than the uop being
// processed — land in the unscanned part at their sorted position, so the
// same scan reaches them while budget remains. The park lane is consumed
// from its head, parked[ph:], without moving the rest.
//
// A vacated slot is never cleared. Every entry names a dynUop the core
// keeps reachable for its whole life (in the window, as the pending fetch
// or in the free pool), so a dropped entry pins nothing.
type readyList struct {
	s    []readyItem
	r, w int

	parked []readyItem
	ph     int
}

// readyItem is one entry of the ready list. seq is the sort key captured
// at push: d may be recycled for a younger uop while a stale entry still
// names it, so the key cannot be read back through d.
type readyItem struct {
	seq   uint64
	d     *dynUop
	epoch uint32
}

// grow preallocates room for n entries in the main lane and parked in the
// park lane.
func (l *readyList) grow(n, parked int) {
	if cap(l.s) < n {
		s := make([]readyItem, len(l.s), n)
		copy(s, l.s)
		l.s = s
	}
	if cap(l.parked) < parked {
		p := make([]readyItem, len(l.parked)-l.ph, parked)
		copy(p, l.parked[l.ph:])
		l.parked, l.ph = p, 0
	}
}

// Len returns the number of entries in both lanes, including stale ones.
func (l *readyList) Len() int { n := l.lens(); return n[0] + n[1] }

// lens returns the number of entries in the main lane and in the park
// lane, including stale ones.
func (l *readyList) lens() [2]int { return [2]int{len(l.s) - (l.r - l.w), len(l.parked) - l.ph} }

// push inserts d under its current epoch at its sorted position in the
// main lane, after any entries with the same key. Inside a scan an entry
// older than the scan position goes to the front of the unscanned part, so
// it is the next one scanned, as the lowest key left in a heap would be
// the next popped.
func (l *readyList) push(d *dynUop) {
	e := readyItem{seq: d.u.Seq, d: d, epoch: d.epoch}
	l.s = append(l.s, e)
	i := len(l.s) - 1
	for i > l.r && l.s[i-1].seq > e.seq {
		l.s[i] = l.s[i-1]
		i--
	}
	l.s[i] = e
}

// begin starts a scan from the oldest entry.
func (l *readyList) begin() { l.r, l.w = 0, 0 }

// next removes and returns the oldest unscanned entry; ok is false once
// the scan has reached the end. The park lane takes part only when lane is
// true; on equal keys its entry comes first.
func (l *readyList) next(lane bool) (e readyItem, ok bool) {
	if lane && l.ph < len(l.parked) {
		if e = l.parked[l.ph]; l.r == len(l.s) || e.seq <= l.s[l.r].seq {
			l.ph++
			return e, true
		}
	}
	if l.r == len(l.s) {
		return readyItem{}, false
	}
	e = l.s[l.r]
	l.r++
	return e, true
}

// keep puts the main-lane entry next returned back into the list for
// later cycles.
func (l *readyList) keep(e readyItem) {
	i := l.w
	// Only an entry pushed older than the scan position can be out of
	// order here; every other one is younger than all entries kept so far.
	for i > 0 && l.s[i-1].seq > e.seq {
		l.s[i] = l.s[i-1]
		i--
	}
	l.s[i] = e
	l.w++
}

// park moves the main-lane entry next returned into the park lane, at its
// sorted position after any entries with the same key. A full lane closes
// up first: the consumed slots at its head go, and so do the entries whose
// uop was squashed or recycled since it parked, which every scan would
// drop unseen. So the lane grows only when it holds more live entries than
// its capacity; left to grow with stale entries, it added 0.3% to
// srlbench deep-memory's alloc_mib.
func (l *readyList) park(e readyItem) {
	if len(l.parked) == cap(l.parked) {
		n := 0
		for _, p := range l.parked[l.ph:] {
			if p.epoch == p.d.epoch {
				l.parked[n] = p
				n++
			}
		}
		l.parked, l.ph = l.parked[:n], 0
	}
	l.parked = append(l.parked, e)
	i := len(l.parked) - 1
	for i > l.ph && l.parked[i-1].seq > e.seq {
		l.parked[i] = l.parked[i-1]
		i--
	}
	l.parked[i] = e
}

// unpark is called when the parked uop of e, the park-lane entry next just
// returned, issues. Its other entries in the lane are duplicates, next at
// the lane's head; from here on they name a uop that is not parked, whose
// state may change again, so they move to the front of the main lane's
// unscanned part. There they get every check, starting with this scan, in
// the order the single list gives them: every unscanned main-lane entry
// has a key no smaller than e's and, if equal, was pushed after it. The
// free gap left by the scan takes them where it can, so nothing moves.
func (l *readyList) unpark(e readyItem) {
	for l.ph < len(l.parked) && l.parked[l.ph] == e {
		l.ph++
		if l.r > l.w {
			l.r--
		} else {
			l.s = append(l.s, readyItem{})
			copy(l.s[l.r+1:], l.s[l.r:])
		}
		l.s[l.r] = e
	}
}

// end finishes a scan: the unscanned entries close up behind the kept
// ones, and a park lane the scan consumed whole starts again from the
// front of its array.
func (l *readyList) end() {
	if l.w != l.r {
		l.s = l.s[:l.w+copy(l.s[l.w:], l.s[l.r:])]
	}
	if l.ph == len(l.parked) {
		l.parked, l.ph = l.parked[:0], 0
	}
	l.r, l.w = 0, 0
}
