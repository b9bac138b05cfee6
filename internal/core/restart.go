package core

import (
	"srlproc/internal/isa"
	"srlproc/internal/obs"
)

// restart implements CPR checkpoint recovery: execution rolls back to the
// start of the checkpoint with id ckptID (the violating load's or
// mispredicted branch's checkpoint) and replays from there. All younger
// state — scheduler entries, registers, store queue and SRL entries, FC and
// load buffer contents, SDB residents, speculative cache lines — is
// bulk-squashed; the replayed micro-ops re-enter through the normal
// allocate path from the in-window ring.
func (c *Core) restart(ckptID int, penalty uint64) {
	ci := c.ckptIndex(ckptID)
	if ci < 0 {
		// The checkpoint has already committed (stale violation); nothing
		// younger than commit can be rolled back — restart from the oldest
		// live checkpoint instead.
		ci = 0
	}
	ck := &c.ckpts[ci]
	fromSeq := ck.startSeq
	pos := c.win.indexOfSeq(fromSeq)
	if pos < 0 {
		// The checkpoint's first uop was never (re)fetched yet (restart at
		// the very fetch frontier): nothing to squash.
		if c.win.len() > 0 && fromSeq > c.win.at(c.win.len()-1).u.Seq {
			pos = c.win.len()
		} else {
			pos = 0
		}
	}
	c.res.Restarts++
	c.obsEvent(obs.EvRestart, uint64(ck.id))
	if c.win.len() > pos {
		c.res.ReplayedUops += uint64(c.win.len() - pos)
	}

	// Reset per-uop dynamic state for everything from the restart point.
	for i := pos; i < c.win.len(); i++ {
		d := c.win.at(i)
		d.epoch++
		if d.inSched {
			d.inSched = false
			c.schedFree(d.u.Class)
		}
		c.regFree(d)
		if d.allocated && d.isLoad() {
			c.loadsInWindow--
		}
		if d.allocated && d.isStore() {
			c.storesInWindow--
		}
		if d.allocated && d.missReturn > 0 && !d.done {
			c.outstandingMisses--
		}
		d.allocated = false
		d.done = false
		d.poisoned = false
		d.parked = false
		d.pendingSrc = 0
		c.freeWaiterChain(d.waiters)
		d.waiters = nil
		d.prod[0], d.prod[1] = uopRef{}, uopRef{}
		d.missReturn = 0
		d.addrKnown = false
		d.memDep = uopRef{}
		d.inUnknownList = false
		// d.everInSDB is deliberately preserved: miss-dependence is
		// counted once per uop even across replays.
	}

	squashBelow := fromSeq // entries with Seq >= fromSeq are squashed
	if c.chk != nil {
		c.chkSquash(fromSeq)
	}
	// Companion lists.
	c.srlStalled = filterUops(c.srlStalled, squashBelow)
	c.srlRetry.listMuts++
	c.unknownStores = filterUops(c.unknownStores, squashBelow)
	c.deferred = filterUops(c.deferred, squashBelow)

	// Store/load structures and the slice data buffer. Every
	// SquashYoungerThan follows one convention (entries with Seq > argument
	// are removed, see lsq.StoreQueue), so the restart boundary — squash
	// everything with Seq >= fromSeq — is uniformly expressed as
	// SquashYoungerThan(fromSeq-1) across all eight structures. The store
	// queues and the SRL update their own filters.
	c.l1stq.SquashYoungerThan(squashBelow - 1)
	if c.l2stq != nil {
		c.l2stq.SquashYoungerThan(squashBelow - 1)
	}
	if c.srl != nil {
		c.srl.SquashYoungerThan(squashBelow - 1)
		if c.srl.Empty() {
			c.srlEmptied()
		}
	}
	if c.fc != nil {
		c.fc.SquashYoungerThan(squashBelow - 1)
	}
	c.ldbuf.SquashYoungerThan(squashBelow - 1)
	c.order.SquashYoungerThan(squashBelow - 1)
	c.syncs.SquashYoungerThan(squashBelow - 1)
	c.sdb.SquashYoungerThan(squashBelow - 1)
	c.mem.DiscardSpecFrom(c.cycle, ck.id)

	// Checkpoint file: drop everything younger than ck, reset ck itself.
	c.ckpts = c.ckpts[:ci+1]
	ck.pending = 0
	ck.uops = 0
	ck.closed = false

	// Restore the rename map and store-identifier counter from the
	// checkpoint snapshot, set the replay position, and pay the redirect.
	c.lastWriter = ck.renameSnap
	c.storeCounter = ck.startStoreID
	c.replayPos = pos
	c.forceShortCkpt = true
	if resume := c.cycle + penalty; resume > c.fetchResume {
		c.fetchResume = resume
	}
}

func filterUops(list []*dynUop, squashBelow uint64) []*dynUop {
	out := list[:0]
	for _, d := range list {
		if d.u.Seq < squashBelow && d.allocated {
			out = append(out, d)
		}
	}
	return out
}

// injectSnoops models external processors' stores arriving at this core's
// coherence port. A snoop invalidates the line and searches the (secondary)
// load buffer; any hit is a multiprocessor ordering violation and execution
// restarts from the oldest matching load's checkpoint (Section 3).
//
// The arrival coin is drawn exactly once per cycle when snoops are enabled
// — the cycle-skip fast-forward (skip.go) relies on that to replay the RNG
// draw-for-draw across skipped cycles. When applySkip already drew this
// cycle's coin (and it came up heads) it sets pendingSnoopFire; the snoop
// then fires without drawing again, keeping the RNG stream bit-identical
// to a fully stepped run.
func (c *Core) injectSnoops() {
	if c.pendingSnoopFire {
		c.pendingSnoopFire = false
	} else {
		if !c.cfg.SnoopsEnabled || c.prof.SnoopPer1KCycles <= 0 {
			return
		}
		if !c.snoopRNG.Bool(c.prof.SnoopPer1KCycles / 1000.0) {
			return
		}
	}
	var addr uint64
	if c.snoopRNG.Bool(0.5) {
		addr = c.recentLoads[c.snoopRNG.Intn(len(c.recentLoads))]
		if addr == 0 {
			return
		}
	} else {
		// A random heap line (usually misses everything).
		addr = 0x4000_0000 + c.snoopRNG.Uint64n(1<<20)*isa.CacheLineSize
	}
	c.res.Metrics.Inc(obs.MetricSnoopsInjected)
	c.mem.Snoop(addr)
	if v, found := c.ldbuf.SnoopCheck(addr); found {
		c.res.SnoopViolations++
		c.obsEvent(obs.EvSnoopViolation, addr)
		c.restart(v.Ckpt, c.cfg.MispredictPenalty)
	}
}
