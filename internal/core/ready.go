package core

// readyList is the scheduler's ready set: an array kept sorted by sequence
// number, oldest first, as a select array is in hardware. The issue stage
// scans it from the front each cycle and takes what the issue width and
// the load and store ports allow; an entry blocked on a port keeps its
// place for the next cycle instead of leaving and re-entering.
//
// Entries are inserted lazily, like the heap this list replaced: a uop may
// hold several entries (one per wake-up), and a squash leaves its entries in
// place under the old epoch. The scan drops every such copy it reaches
// without spending issue bandwidth. Entries with equal keys stay in push
// order.
//
// During a scan (begin … end) the array is compacted in place: s[:w] holds
// the entries kept so far, s[w:r] is free, and s[r:] is still unscanned.
// Pushes made by the uops the scan executes — consumers woken by a drain
// into the slice data buffer, always younger than the uop being processed
// — land in the unscanned part at their sorted position, so the same scan
// reaches them while budget remains.
type readyList struct {
	s    []readyItem
	r, w int
}

// readyItem is one entry of the ready list. seq is the sort key captured
// at push: d may be recycled for a younger uop while a stale entry still
// names it, so the key cannot be read back through d.
type readyItem struct {
	seq   uint64
	d     *dynUop
	epoch uint32
}

// grow preallocates room for n entries.
func (l *readyList) grow(n int) {
	if cap(l.s) < n {
		s := make([]readyItem, len(l.s), n)
		copy(s, l.s)
		l.s = s
	}
}

// Len returns the number of entries, including stale ones.
func (l *readyList) Len() int { return len(l.s) - (l.r - l.w) }

// push inserts d under its current epoch at its sorted position, after
// any entries with the same key. Inside a scan an entry older than the
// scan position goes to the front of the unscanned part, so it is the next
// one scanned, as the lowest key left in a heap would be the next popped.
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
// the scan has reached the end.
func (l *readyList) next() (e readyItem, ok bool) {
	if l.r == len(l.s) {
		return readyItem{}, false
	}
	e = l.s[l.r]
	l.r++
	return e, true
}

// keep puts the entry next returned back into the list for later cycles.
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

// end finishes a scan: the unscanned entries close up behind the kept
// ones, and the vacated tail is zeroed so dropped entries do not pin
// recycled uops.
func (l *readyList) end() {
	if l.w != l.r {
		n := l.w + copy(l.s[l.w:], l.s[l.r:])
		clear(l.s[n:])
		l.s = l.s[:n]
	}
	l.r, l.w = 0, 0
}
