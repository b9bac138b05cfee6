package core

// Memory-ordering enforcement (DESIGN.md §12).
//
// The core supports release consistency over three primitive kinds: full
// fences (isa.Fence), load-acquires (isa.Uop.Acq) and store-releases
// (isa.Uop.Rel). Every gate asks one of two questions, and each is
// answered in O(1) by a write-after-read bit ring of Section 4.3
// (lsq.OrderTracker) — no per-load CAM search, matching the paper's
// scalable-structures theme:
//
//   - "have all loads older than seq performed?" is c.order, the ring the
//     SRL head's WAR check already asks. Fences and store-release drains
//     wait on it.
//   - "is a fence or load-acquire older than seq still pending?" is
//     c.syncs, a second ring over fences and load-acquires: set at
//     allocation, cleared at completion. Loads, fences and SRL drains wait
//     on its oldest entry.
//
// A checkpoint restart squashes both rings like every other structure, and
// replayed uops set their bits again when they re-allocate.

// pendingSyncBefore returns the oldest unperformed fence or load-acquire
// strictly older than seq, or nil. Loads may not perform past it; in the
// SRL design, speculative store drains may not pass it either.
func (c *Core) pendingSyncBefore(seq uint64) *dynUop {
	if s, ok := c.syncs.Oldest(); ok && s < seq {
		return c.uopBySeq(s)
	}
	return nil
}

// fenceReady reports whether fence d may perform: every older sync has
// performed, every older load has performed, and every older store has
// drained out of the design's store FIFOs — each FIFO is sequence-sorted,
// so head checks suffice. Fences force a fresh checkpoint at allocation
// (see allocate), so older stores always sit in older, committable
// checkpoints and the drain wait cannot deadlock against the fence's own
// checkpoint.
func (c *Core) fenceReady(d *dynUop) bool {
	if c.pendingSyncBefore(d.u.Seq) != nil || !c.order.AllLoadsOlderThanDone(d.u.Seq) {
		return false
	}
	if h := c.l1stq.Head(); h != nil && h.Seq < d.u.Seq {
		return false
	}
	if c.l2stq != nil {
		if h := c.l2stq.Head(); h != nil && h.Seq < d.u.Seq {
			return false
		}
	}
	if c.srl != nil {
		if h := c.srl.Head(); h != nil && h.Seq < d.u.Seq {
			return false
		}
	}
	return true
}
