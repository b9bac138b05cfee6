package core

import "srlproc/internal/isa"

// dynUop is the dynamic (per-instance) state of a micro-op in flight. The
// same object survives checkpoint-restart replays; epoch invalidates stale
// queue/heap references after a squash. Committed uops are recycled through
// the core's free list (the window ring's companion pool), so any reference
// that can outlive commit must be epoch-guarded — hence uopRef below.
type dynUop struct {
	u isa.Uop

	// Dependences: producers of src1/src2 (zero uopRef when the value was
	// already architectural at allocation) and the consumers to wake on
	// availability (an intrusive list of pooled waiterNodes).
	prod    [2]uopRef
	waiters *waiterNode

	pendingSrc int8
	epoch      uint32

	// Lifecycle flags.
	allocated bool
	inSched   bool
	done      bool // executed with real data
	poisoned  bool // carrying poison: exactly while in the SDB
	committed bool
	parked    bool // a load whose sources are done, waiting in the ready list's park lane for a load port

	holdsReg bool

	ckptID int // owning checkpoint (monotonic id)

	// Memory state. A store's queue entries are found by sequence number,
	// and its SRL slot is its storeID.
	storeID        uint64 // stores: global allocation order (the paper's store identifier)
	nearestStoreID uint64 // loads: identifier of the last prior store
	addrKnown      bool
	missReturn     uint64 // loads: DRAM fill cycle when the load missed to memory
	everInSDB      bool   // for miss-dependent accounting (counted once)
	everRedone     bool   // stores: drained through the SRL at least once
	inUnknownList  bool   // stores: currently in the unknown-address screen list

	// Branch state.
	predTaken  bool
	brResolved bool // outcome known to the front end (post-restart replay)
	bpTrained  bool // predictor updated (once, in program order at allocate)

	// memDep is a store this load must wait for (predicted or detected
	// memory dependence); the load re-executes once the store completes.
	memDep uopRef
}

// uopRef is an epoch-stamped reference to a dynUop. Committed uops are
// recycled, so a bare pointer held across commit would silently start
// describing a different micro-op; the epoch (bumped at every squash and at
// every recycle) detects that. A stale reference means the original uop is
// gone — and since a consumer is always younger than its producers, the
// only way a producer disappears while the reference holder lives is
// commit, so stale reads as "architecturally complete, not poisoned":
// exactly what a committed producer's flags said before recycling.
type uopRef struct {
	d     *dynUop
	epoch uint32
}

// ref captures an epoch-stamped reference to d at its current epoch.
func ref(d *dynUop) uopRef { return uopRef{d: d, epoch: d.epoch} }

// live returns the referenced uop, or nil if the reference is unset or the
// uop has been squashed or recycled since capture.
func (r uopRef) live() *dynUop {
	if r.d != nil && r.d.epoch == r.epoch {
		return r.d
	}
	return nil
}

// waiterNode is one entry in a producer's waiter list, drawn from the
// core's node pool. seq pins the consumer's identity: a squashed-then-
// replayed consumer keeps its sequence number (and must still be woken,
// preserving the original list semantics), while a recycled consumer
// object carries a new, strictly larger sequence number (and must not be).
type waiterNode struct {
	d    *dynUop
	seq  uint64
	next *waiterNode
}

func (d *dynUop) isLoad() bool  { return d.u.Class == isa.Load }
func (d *dynUop) isStore() bool { return d.u.Class == isa.Store }

// srcAvailable reports whether producer i is available (done, or poisoned —
// poison is itself a value that propagates; a stale reference means the
// producer committed, which is also available).
func (d *dynUop) srcAvailable(i int) bool {
	p := d.prod[i].live()
	return p == nil || p.done || p.poisoned
}

// anyPoisonedSrc reports whether any producer currently carries poison.
func (d *dynUop) anyPoisonedSrc() bool {
	for _, r := range d.prod {
		if p := r.live(); p != nil && p.poisoned && !p.done {
			return true
		}
	}
	m := d.memDep.live()
	return m != nil && m.poisoned && !m.done
}

// settled reports whether every producer of d and its memory dependence
// are done or gone. A done uop stays done until the squash that also
// squashes d, so a settled uop's anyPoisonedSrc stays false until it issues
// or is squashed. Passing anyPoisonedSrc does not settle a uop: a producer
// that re-entered the pipeline from the slice data buffer is neither
// poisoned nor done, and is poisoned again if it misses again.
func (d *dynUop) settled() bool {
	for _, r := range d.prod {
		if p := r.live(); p != nil && !p.done {
			return false
		}
	}
	m := d.memDep.live()
	return m == nil || m.done
}

// --- window ring ---

// window is a FIFO ring of in-flight micro-ops from oldest uncommitted to
// youngest fetched, supporting replay from an arbitrary position after a
// checkpoint restart.
type window struct {
	buf   []*dynUop
	head  int
	count int
}

func newWindow(capacity int) *window {
	return &window{buf: make([]*dynUop, capacity)}
}

func (w *window) len() int   { return w.count }
func (w *window) full() bool { return w.count == len(w.buf) }

func (w *window) push(d *dynUop) {
	if w.full() {
		panic("core: window overflow")
	}
	w.buf[w.slot(w.count)] = d
	w.count++
}

// slot maps offset i from the head (0 <= i <= capacity) to its ring
// slot, with a conditional subtract instead of % (the capacity is a
// configuration value, so a division would be a real divide per access).
func (w *window) slot(i int) int {
	j := w.head + i
	if j >= len(w.buf) {
		j -= len(w.buf)
	}
	return j
}

func (w *window) at(i int) *dynUop {
	return w.buf[w.slot(i)]
}

// popFront removes and returns the oldest uop, or nil when the window is
// empty. The vacated slot is not cleared: the uop goes on to the core's
// free pool, which keeps it reachable anyway.
func (w *window) popFront() *dynUop {
	if w.count == 0 {
		return nil
	}
	d := w.buf[w.head]
	w.head = w.slot(1)
	w.count--
	return d
}

// indexOfSeq returns the ring position of the uop with sequence seq, or -1.
// Sequence numbers are dense within the window, so this is O(1).
func (w *window) indexOfSeq(seq uint64) int {
	if w.count == 0 {
		return -1
	}
	first := w.at(0).u.Seq
	if seq < first || seq >= first+uint64(w.count) {
		return -1
	}
	return int(seq - first)
}

// --- completion heap ---

// cmplHeap is the completion queue: a binary min-heap of events keyed by
// completion cycle, over a slice that grows to its working size once and
// then never allocates. The ready set is the age-ordered readyList
// (ready.go) and the slice data buffer a sequence-number bit ring
// (Core.sdb), not heaps. Events carry the uop's epoch at insertion so
// squashes invalidate them lazily.
//
// Many completions share a cycle, and those ties pop in the heap's layout
// order, which the sift's comparisons decide. push and pop make
// container/heap's comparisons, one for one, and so leave its layout: the
// event being sifted is held aside and each event it passes moves one
// level, where container/heap swaps the two, which places every event
// where the swaps would. Ties therefore pop in the order they always have,
// and every simulated result with them (TestMatchesContainerHeap). A
// popped slot is not cleared: its dynUop stays reachable from the core
// (window, pending fetch or free pool) for the core's whole life.
type cmplHeap struct {
	s []cmplEvent
}

// cmplEvent is one entry of the completion heap.
type cmplEvent struct {
	cycle uint64
	d     *dynUop
	epoch uint32
}

// grow preallocates room for n events.
func (h *cmplHeap) grow(n int) {
	if cap(h.s) < n {
		s := make([]cmplEvent, len(h.s), n)
		copy(s, h.s)
		h.s = s
	}
}

func (h *cmplHeap) len() int { return len(h.s) }

// head returns the earliest event. h must not be empty.
func (h *cmplHeap) head() cmplEvent { return h.s[0] }

// push schedules d's completion at cycle: container/heap's Push, whose
// sift-up stops at the root or below a parent no later than the event.
func (h *cmplHeap) push(cycle uint64, d *dynUop) {
	s := append(h.s, cmplEvent{})
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if cycle >= s[i].cycle {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = cmplEvent{cycle: cycle, d: d, epoch: d.epoch}
	h.s = s
}

// pop removes the earliest event, the one head returns: container/heap's
// Pop, which moves the last event to the root and sifts it down, past the
// earlier child (the right one only when strictly earlier) while that child
// is strictly earlier than it. Until it lands, the sifted event stays in
// the last slot, just past the heap that remains, and stands in there for
// a missing right child: a left child that is the heap's last event is
// compared with it, which never takes the sift anywhere container/heap's
// would not go. h must not be empty.
func (h *cmplHeap) pop() {
	s := h.s
	n := len(s) - 1
	i := 0
	for j := 1; j < n; j += j + 1 {
		if s[j+1].cycle < s[j].cycle {
			j++
		}
		if s[j].cycle >= s[n].cycle {
			break
		}
		s[i], i = s[j], j
	}
	s[i], h.s = s[n], s[:n]
}

// --- checkpoints ---

// ckptState is one CPR map-table checkpoint, a record of the core's
// checkpoint file (Core.ckpts). Identity is the monotonic id, never the
// position in the file.
type ckptState struct {
	id           int
	startSeq     uint64
	startStoreID uint64
	renameSnap   [isa.NumArchRegs]uopRef
	pending      int // allocated-but-not-completed uops
	uops         int // uops allocated into this checkpoint
	closed       bool
}
