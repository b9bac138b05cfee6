package core

import (
	"fmt"
	"testing"

	"srlproc/internal/heapq"
	"srlproc/internal/isa"
	"srlproc/internal/xrand"
)

// The issue stage's select over the ready list must take the same uops, in
// the same order, as the min-heap select it replaced: pop every entry in
// sequence order until the issue budget runs out, set port-blocked entries
// aside, and push them back at the end. heapSelect keeps that loop as the
// reference; listSelect is the same decision sequence over readyList, as
// issue() runs it. Both run against a selWorld — dynUops with the flags
// the select reads, plus the wake-ups a drain into the slice data buffer
// causes — and TestReadyListMatchesHeap drives two identical worlds, one
// per structure, with the same random traffic.

// selAct is what the select did with one entry.
type selAct uint8

const (
	selDrop  selAct = iota // stale: old epoch, not in the scheduler, or waiting on a source
	selDrain               // poisoned source: drained to the slice data buffer
	selPark                // load or store with its port taken this cycle
	selExec                // issued
)

type selStep struct {
	seq   uint64
	epoch uint32
	act   selAct
}

// selWorld is the machine state the select reads and writes.
type selWorld struct {
	uops    []*dynUop             // uops[i] carries sequence number i+1
	waiters map[*dynUop][]*dynUop // consumers woken when the key uop drains
	poison  *dynUop               // a poisoned producer: consumers pointing at it drain
	push    func(*dynUop)         // inserts into the structure under test
	queued  func(seq uint64) bool // whether the structure holds an entry for seq
	log     []selStep
	woken   map[uint64]bool // consumers woken during the current scan
	seen    selCoverage
}

// selCoverage counts the situations the traffic is meant to produce, so
// the test fails if it stops producing them.
type selCoverage struct {
	duplicates, stale, parks, wokenScanned, exhausted int
}

func newSelWorld(n int) *selWorld {
	w := &selWorld{waiters: map[*dynUop][]*dynUop{}, woken: map[uint64]bool{}, poison: &dynUop{poisoned: true}}
	classes := []isa.Class{isa.IntALU, isa.IntALU, isa.Load, isa.Load, isa.Store, isa.FPAdd}
	for i := 0; i < n; i++ {
		d := &dynUop{}
		d.u.Seq = uint64(i + 1)
		d.u.Class = classes[i%len(classes)]
		d.allocated = true
		w.uops = append(w.uops, d)
	}
	return w
}

// decide applies issue()'s decisions to one entry, logs what it did and
// returns it; a drain or an issue uses issue budget.
func (w *selWorld) decide(e readyItem, loadP, storeP *int) (act selAct) {
	for _, s := range w.log {
		if s.seq == e.seq && s.epoch == e.epoch {
			w.seen.duplicates++
			break
		}
	}
	if w.woken[e.seq] {
		w.seen.wokenScanned++
	}
	defer func() { w.log = append(w.log, selStep{e.seq, e.epoch, act}) }()
	d := e.d
	if e.epoch != d.epoch || !d.inSched || d.pendingSrc > 0 {
		w.seen.stale++
		return selDrop
	}
	if d.anyPoisonedSrc() {
		// drainToSDB: the uop leaves the scheduler carrying poison, and
		// the poison wakes its (younger) consumers in the same cycle.
		d.inSched = false
		d.poisoned = true
		for _, c := range w.waiters[d] {
			if c.pendingSrc > 0 {
				c.pendingSrc--
			}
			if c.pendingSrc == 0 && c.inSched {
				w.push(c)
				w.woken[c.u.Seq] = true
			}
		}
		delete(w.waiters, d)
		return selDrain
	}
	switch d.u.Class {
	case isa.Load:
		if *loadP == 0 {
			w.seen.parks++
			return selPark
		}
		*loadP--
	case isa.Store:
		if *storeP == 0 {
			w.seen.parks++
			return selPark
		}
		*storeP--
	}
	d.inSched = false
	d.issued = true
	return selExec
}

// refHeap is the reference's ready heap. heapq.Heap shows only its
// minimum, so the test counts the entries it holds beside it.
type refHeap struct {
	h    heapq.Heap[readyItem]
	held map[readyItem]int
}

func (r *refHeap) push(e readyItem) {
	r.h.Push(e.seq, e)
	r.held[e]++
}

func (r *refHeap) pop() readyItem {
	_, e := r.h.PopMin()
	if r.held[e]--; r.held[e] == 0 {
		delete(r.held, e)
	}
	return e
}

func (r *refHeap) Len() int { return r.h.Len() }

// heapSelect is the reference: the heap pop/park/re-push loop.
func heapSelect(h *refHeap, w *selWorld, budget, loadP, storeP int) {
	var parked []readyItem
	for budget > 0 && h.Len() > 0 {
		e := h.pop()
		switch w.decide(e, &loadP, &storeP) {
		case selDrop:
		case selPark:
			parked = append(parked, e)
		default:
			budget--
		}
	}
	if budget == 0 && h.Len() > 0 {
		w.seen.exhausted++
	}
	for _, e := range parked {
		h.push(e)
	}
}

// listSelect is issue()'s scan over the ready list.
func listSelect(l *readyList, w *selWorld, budget, loadP, storeP int) {
	l.begin()
	for budget > 0 {
		e, ok := l.next()
		if !ok {
			break
		}
		switch w.decide(e, &loadP, &storeP) {
		case selDrop:
		case selPark:
			l.keep(e)
		default:
			budget--
		}
	}
	l.end()
}

// selTraffic applies one cycle's random arrivals to w. Both worlds draw
// from identically seeded generators and read only their own (identical)
// state, so they receive identical traffic for as long as they agree.
// With mixed false a squashed uop is not allocated again while entries of
// its old epoch are still queued.
func selTraffic(rng *xrand.RNG, w *selWorld, frontier int, mixed bool) {
	for k := rng.Intn(6); k > 0; k-- {
		d := w.uops[frontier-1-rng.Intn(min(frontier, 48))]
		switch rng.Intn(8) {
		case 0, 1, 2: // (re)allocate into the scheduler, as allocate and replay do
			if d.inSched || (!mixed && w.queued(d.u.Seq)) {
				continue
			}
			d.inSched, d.issued, d.poisoned = true, false, false
			d.pendingSrc = 0
			d.prod[0] = uopRef{}
			if rng.Bool(0.25) {
				d.prod[0] = ref(w.poison)
			}
			// Wait on an older uop that will drain, if one is queued.
			if p := w.uops[int(d.u.Seq)-1-rng.Intn(min(int(d.u.Seq), 8))]; p != d && p.inSched &&
				p.prod[0].live() == w.poison && rng.Bool(0.5) {
				d.pendingSrc = 1
				w.waiters[p] = append(w.waiters[p], d)
				continue
			}
			w.push(d)
		case 3: // a second wake-up: a duplicate entry
			if d.inSched && d.pendingSrc == 0 {
				w.push(d)
			}
		case 4, 5: // squash: the entries it holds go stale
			d.epoch++
			d.inSched = false
			d.pendingSrc = 0
			delete(w.waiters, d)
		case 6: // a source becomes pending again: entries go stale
			if d.inSched {
				d.pendingSrc++
			}
		case 7: // ... and that source arrives
			if d.inSched && d.pendingSrc > 0 {
				if d.pendingSrc--; d.pendingSrc == 0 {
					w.push(d)
				}
			}
		}
	}
}

// selDiff drives a heap world and a list world with the same traffic for
// several seeds, hands each cycle's logs and structures to check, and
// returns what the heap world saw.
func selDiff(t *testing.T, mixed bool, check func(hLog, lLog []selStep, h *refHeap, l *readyList) string) (seen selCoverage) {
	const uops, cycles = 600, 4000
	for seed := uint64(1); seed <= 40; seed++ {
		h := refHeap{held: map[readyItem]int{}}
		var l readyList
		hw, lw := newSelWorld(uops), newSelWorld(uops)
		hw.push = func(d *dynUop) { h.push(readyItem{seq: d.u.Seq, d: d, epoch: d.epoch}) }
		lw.push = l.push
		hw.queued = func(seq uint64) bool {
			for e := range h.held {
				if e.seq == seq {
					return true
				}
			}
			return false
		}
		lw.queued = func(seq uint64) bool {
			for _, e := range l.s {
				if e.seq == seq {
					return true
				}
			}
			return false
		}
		hrng, lrng, cfg := xrand.New(seed), xrand.New(seed), xrand.New(seed^0x5e1ec7)
		frontier := 1
		for cyc := 0; cyc < cycles; cyc++ {
			frontier = min(frontier+cfg.Intn(3), uops)
			selTraffic(hrng, hw, frontier, mixed)
			selTraffic(lrng, lw, frontier, mixed)
			// Budget exhaustion and port limits are the common case: few
			// slots, often no free load or store port.
			budget, loadP, storeP := 1+cfg.Intn(6), cfg.Intn(2), cfg.Intn(2)
			hw.log, lw.log = hw.log[:0], lw.log[:0]
			clear(hw.woken)
			clear(lw.woken)
			heapSelect(&h, hw, budget, loadP, storeP)
			listSelect(&l, lw, budget, loadP, storeP)
			if msg := check(hw.log, lw.log, &h, &l); msg != "" {
				t.Fatalf("seed %d cycle %d: %s", seed, cyc, msg)
			}
		}
		seen.duplicates += hw.seen.duplicates
		seen.stale += hw.seen.stale
		seen.parks += hw.seen.parks
		seen.wokenScanned += hw.seen.wokenScanned
		seen.exhausted += hw.seen.exhausted
	}
	return seen
}

// TestReadyListMatchesHeap: with duplicate entries, stale epochs, port
// limits, budget exhaustion and consumers woken during the scan, the list
// processes exactly the entries the heap did, in the same order, and holds
// as many entries after every cycle.
func TestReadyListMatchesHeap(t *testing.T) {
	seen := selDiff(t, false, func(hLog, lLog []selStep, h *refHeap, l *readyList) string {
		if fmt.Sprint(hLog) != fmt.Sprint(lLog) {
			return fmt.Sprintf("processed\nheap %v\nlist %v", hLog, lLog)
		}
		if h.Len() != l.Len() {
			return fmt.Sprintf("heap holds %d entries, list %d", h.Len(), l.Len())
		}
		return ""
	})
	t.Logf("coverage: %+v", seen)
	if seen.duplicates == 0 || seen.stale == 0 || seen.parks == 0 || seen.wokenScanned == 0 || seen.exhausted == 0 {
		t.Fatalf("traffic no longer covers every case: %+v", seen)
	}
}

// TestReadyListMatchesHeapMixedEpochs adds the one case where the two
// differ: a squashed uop allocated again while entries of its old epoch
// are still queued, so one key carries entries of two epochs. The heap
// popped equal keys in the order its swap history left them; the list
// keeps push order. At most one epoch is the uop's current one, so every
// drain, park and issue — all the machine sees — is still the same, and
// so is the number of current-epoch entries. Only when the budget runs out
// on that key may stale entries outlive the scan in one structure and not
// the other, until the next scan drops them. (Instrumented, the machine
// never queued two epochs under one key in this repository's tests or the
// full oracle sweep; this bounds what would happen if it did.)
func TestReadyListMatchesHeapMixedEpochs(t *testing.T) {
	lenDiffers := 0
	selDiff(t, true, func(hLog, lLog []selStep, h *refHeap, l *readyList) string {
		if h.Len() != l.Len() {
			lenDiffers++
		}
		if a, b := fmt.Sprint(liveSteps(hLog)), fmt.Sprint(liveSteps(lLog)); a != b {
			return fmt.Sprintf("drained, parked and issued\nheap %v\nlist %v", a, b)
		}
		hc, lc := 0, 0
		for e, n := range h.held {
			if e.epoch == e.d.epoch {
				hc += n
			}
		}
		for _, e := range l.s[:l.Len()] {
			if e.epoch == e.d.epoch {
				lc++
			}
		}
		if hc != lc {
			return fmt.Sprintf("heap holds %d current-epoch entries, list %d", hc, lc)
		}
		return ""
	})
	// The traffic must reach the case this test is about.
	t.Logf("stale entries outlived a scan in one structure only after %d cycles", lenDiffers)
	if lenDiffers == 0 {
		t.Fatal("traffic never left stale entries of two epochs under one key at the budget limit")
	}
}

// liveSteps drops the stale entries a log records.
func liveSteps(log []selStep) []selStep {
	var out []selStep
	for _, s := range log {
		if s.act != selDrop {
			out = append(out, s)
		}
	}
	return out
}

// TestReadyListOlderPushDuringScan covers a push older than the scan
// position, which the machine never makes (a woken consumer is younger
// than the uop that woke it) but which the list must still order like a
// heap: scanned next, and kept in sequence order if it parks.
func TestReadyListOlderPushDuringScan(t *testing.T) {
	w := newSelWorld(8)
	var l readyList
	for _, i := range []int{2, 4, 6} {
		w.uops[i].inSched = true
		l.push(w.uops[i])
	}
	l.begin()
	e, _ := l.next() // seq 3
	l.keep(e)
	e, _ = l.next() // seq 5
	l.keep(e)
	w.uops[0].inSched = true
	l.push(w.uops[0]) // seq 1, older than everything scanned
	if e, _ = l.next(); e.seq != 1 {
		t.Fatalf("next after an older push is seq %d, want 1", e.seq)
	}
	l.keep(e)
	l.end()
	var got []uint64
	for _, it := range l.s {
		got = append(got, it.seq)
	}
	if fmt.Sprint(got) != "[1 3 5 7]" || l.Len() != 4 {
		t.Fatalf("list after the scan: %v (Len %d), want [1 3 5 7]", got, l.Len())
	}
}
