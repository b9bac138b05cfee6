package core

import (
	"srlproc/internal/heapq"
	"srlproc/internal/isa"
)

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

func (w *window) popFront() *dynUop {
	if w.count == 0 {
		return nil
	}
	d := w.buf[w.head]
	w.buf[w.head] = nil
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
//
// The completion queue is a heap (heapq.Heap: an index-based min-heap over
// a preallocated slice, no interface boxing on Push/Pop), keyed by the
// event's cycle. Many completions share a cycle, and heapq's sift
// reproduces container/heap's swaps exactly so those ties pop in the order
// they always have. The ready set is the age-ordered readyList (ready.go)
// and the slice data buffer a sequence-number bit ring (Core.sdb), not
// heaps. Events carry the uop's epoch at insertion so squashes invalidate
// them lazily.

// cmplEvent is the payload of the completion heap (key: completion cycle).
type cmplEvent struct {
	d     *dynUop
	epoch uint32
}

type cmplHeap = heapq.Heap[cmplEvent]

func pushCmpl(h *cmplHeap, cycle uint64, d *dynUop) {
	h.Push(cycle, cmplEvent{d: d, epoch: d.epoch})
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
