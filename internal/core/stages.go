package core

import (
	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/obs"
)

// waiter registration: consumers subscribe to producers through pooled
// intrusive list nodes. The node pins the consumer's sequence number, not
// its pointer identity: a squashed-then-replayed consumer keeps its seq and
// must still be woken, while a recycled consumer object carries a new,
// strictly larger seq and the stale node is inert.
func (c *Core) addWaiter(producer, consumer *dynUop) {
	consumer.pendingSrc++
	n := c.newWaiterNode()
	n.d = consumer
	n.seq = consumer.u.Seq
	n.next = producer.waiters
	producer.waiters = n
}

// wakeWaiters notifies consumers that d's value (or poison) is available.
// List order does not affect behavior: woken consumers enter the ready
// list at the position their distinct sequence numbers sort to, whatever
// the order they are pushed in.
func (c *Core) wakeWaiters(d *dynUop) {
	n := d.waiters
	d.waiters = nil
	for n != nil {
		next := n.next
		w := n.d
		if n.seq == w.u.Seq && w.allocated && !w.committed {
			if w.pendingSrc > 0 {
				w.pendingSrc--
			}
			if w.pendingSrc == 0 && w.inSched {
				c.ready.push(w)
			}
		}
		n.d = nil
		n.next = c.nodeFree
		c.nodeFree = n
		n = next
	}
}

// --- resource helpers ---

// sliceReserve is the number of scheduler entries per window reserved for
// slice reinsertion: the SDB must always be able to re-acquire resources or
// the pipeline deadlocks (consumers of a stalled load can otherwise fill
// the scheduler while the load's own slice waits to re-enter).
const sliceReserve = 4

// schedAvail reports front-end allocation space (leaving the reserve).
func (c *Core) schedAvail(cl isa.Class) bool {
	switch {
	case cl.IsMem():
		return c.schedMem < c.cfg.SchedMem-sliceReserve
	case cl.IsFP():
		return c.schedFP < c.cfg.SchedFP-sliceReserve
	default:
		return c.schedInt < c.cfg.SchedInt-sliceReserve
	}
}

// schedAvailSlice reports reinsertion space (full window, including the
// reserve).
func (c *Core) schedAvailSlice(cl isa.Class) bool {
	switch {
	case cl.IsMem():
		return c.schedMem < c.cfg.SchedMem
	case cl.IsFP():
		return c.schedFP < c.cfg.SchedFP
	default:
		return c.schedInt < c.cfg.SchedInt
	}
}

func (c *Core) schedTake(cl isa.Class) {
	switch {
	case cl.IsMem():
		c.schedMem++
	case cl.IsFP():
		c.schedFP++
	default:
		c.schedInt++
	}
}

func (c *Core) schedFree(cl isa.Class) {
	switch {
	case cl.IsMem():
		c.schedMem--
	case cl.IsFP():
		c.schedFP--
	default:
		c.schedInt--
	}
}

// regAvail reports front-end allocation space, leaving a reserve for slice
// reinsertion (same rationale as the scheduler reserve: the SDB must always
// be able to re-acquire a destination register, or stalled loads holding
// registers can deadlock the redo).
func (c *Core) regAvail(d *dynUop) bool {
	if d.u.Dst == isa.NoReg {
		return true
	}
	if d.u.Class.IsFP() {
		return c.regsFP < c.cfg.FPRegs-sliceReserve
	}
	return c.regsInt < c.cfg.IntRegs-sliceReserve
}

// regAvailSlice reports reinsertion space (full register file).
func (c *Core) regAvailSlice(d *dynUop) bool {
	if d.u.Dst == isa.NoReg {
		return true
	}
	if d.u.Class.IsFP() {
		return c.regsFP < c.cfg.FPRegs
	}
	return c.regsInt < c.cfg.IntRegs
}

func (c *Core) regTake(d *dynUop) {
	if d.u.Dst == isa.NoReg {
		return
	}
	if d.u.Class.IsFP() {
		c.regsFP++
	} else {
		c.regsInt++
	}
	d.holdsReg = true
}

func (c *Core) regFree(d *dynUop) {
	if !d.holdsReg {
		return
	}
	if d.u.Class.IsFP() {
		c.regsFP--
	} else {
		c.regsInt--
	}
	d.holdsReg = false
}

// --- slice (CFP) handling ---

// drainToSDB moves a poisoned uop out of the pipeline into the slice data
// buffer, releasing its scheduler entry and register — the Continual Flow
// Pipeline property that keeps cycle-critical resources small.
func (c *Core) drainToSDB(d *dynUop) {
	d.poisoned = true
	if d.inSched {
		d.inSched = false
		c.schedFree(d.u.Class)
	}
	c.regFree(d)
	if !d.everInSDB {
		d.everInSDB = true
		c.res.MissDependentUops++
		if d.isStore() {
			c.res.MissDependentStores++
		}
		m := d.memDep.live()
		switch {
		case d.missReturn > 0:
			c.res.Metrics.Inc(obs.MetricSDBCauseMissRoot)
		case m != nil && m.poisoned && !m.done:
			c.res.Metrics.Inc(obs.MetricSDBCauseMemDep)
		default:
			c.res.PoisonedSrcDrains[d.u.Class]++
		}
	}
	c.sdb.Add(d.u.Seq)
	// For stores with a known (clean) address, record the address in the
	// store queue entry so loads can disambiguate against it; otherwise the
	// store's address is unknown and the dependence predictor screens loads.
	if d.isStore() {
		ap := d.prod[0].live()
		if (ap == nil || ap.done) && !d.addrKnown {
			if q, e := c.locateStoreEntry(d); e != nil {
				q.Resolve(e, d.u.Addr, d.u.Size)
				d.addrKnown = true
				if c.chk != nil {
					// Address visible to disambiguation, data still poisoned.
					c.chkStoreResolved(d, false)
				}
			}
		}
		if !d.addrKnown && !d.inUnknownList {
			d.inUnknownList = true
			c.unknownStores = append(c.unknownStores, d)
		}
	}
	// Poison propagates to consumers.
	c.wakeWaiters(d)
}

// sliceHeadReady reports whether the SDB head can re-enter the pipeline.
func (c *Core) sliceHeadReady(d *dynUop) bool {
	if d.missReturn > 0 {
		return c.cycle >= d.missReturn
	}
	for i := range d.prod {
		if !d.srcAvailable(i) {
			return false
		}
	}
	if m := d.memDep.live(); m != nil && !m.done && !m.poisoned && m.allocated {
		return false
	}
	return true
}

// sdbHead returns the oldest SDB resident, or nil when the SDB is empty.
func (c *Core) sdbHead() *dynUop {
	seq, ok := c.sdb.Oldest()
	if !ok {
		return nil
	}
	return c.uopBySeq(seq)
}

// reinsertSlice drains the SDB head back into the pipeline when the miss
// data has returned (Section 2.1: slice re-acquires resources and executes,
// interleaved in program order with the redo of independent stores). The
// head's producers are older, so none of them is still poisoned.
func (c *Core) reinsertSlice() {
	budget := c.cfg.AllocWidth
	for budget > 0 {
		d := c.sdbHead()
		if d == nil {
			break
		}
		if !c.sliceHeadReady(d) {
			break
		}
		if d.missReturn > 0 {
			// The miss load itself: its data arrived from memory; it
			// completes directly (the register write of the returning
			// fill), consuming a register but no execution slot.
			if !c.regAvailSlice(d) {
				c.res.StallRegs++
				break
			}
			c.sdb.Remove(d.u.Seq)
			budget--
			d.poisoned = false
			c.regTake(d)
			c.outstandingMisses--
			d.missReturn = 0
			c.obsEvent(obs.EvMissReturn, d.u.Addr)
			c.onMissReturn()
			c.complete(d)
			continue
		}
		// Re-acquire scheduler and register resources and re-execute.
		if !c.schedAvailSlice(d.u.Class) {
			c.res.StallSched++
			break
		}
		if !c.regAvailSlice(d) {
			c.res.StallRegs++
			break
		}
		c.sdb.Remove(d.u.Seq)
		budget--
		d.poisoned = false
		d.inSched = true
		c.schedTake(d.u.Class)
		c.regTake(d)
		d.pendingSrc = 0
		c.ready.push(d)
	}
}

// onMissReturn implements the "temporary updates are discarded when the
// miss returns" rule: the forwarding cache (or the data cache's temporary
// lines in the §6.5 variant) is flash-cleared as the redo begins.
func (c *Core) onMissReturn() {
	if c.cfg.Design != DesignSRL {
		return
	}
	// Discard temporary updates once per redo episode (the first returning
	// miss starts the redo; later returns of the same burst join it).
	if c.redoActive || c.srl.Empty() {
		return
	}
	c.redoActive = true
	c.obsEvent(obs.EvRedoStart, uint64(c.srlLen()))
	if c.fc != nil {
		c.fc.DiscardAll()
	} else {
		// Temporary updates discarded: the next access re-misses to L2 —
		// the extra redo-phase misses of §6.5.
		c.res.SpecDiscards += uint64(c.mem.DiscardSpecTemp(c.cycle))
	}
}

// --- completion ---

// complete finishes a uop's execution with real data.
func (c *Core) complete(d *dynUop) {
	if d.done || !d.allocated {
		return
	}
	d.done = true
	d.poisoned = false
	c.regFree(d)
	if i := c.ckptIndex(d.ckptID); i >= 0 {
		c.ckpts[i].pending--
	}

	restarted := false
	switch {
	case d.isLoad():
		// The load buffer recorded the load at its decision
		// (insertLoadBufEntry), before its completion was scheduled.
		c.order.Remove(d.u.Seq)
		if d.u.Acq {
			c.syncs.Remove(d.u.Seq)
		}
		c.noteRecentLoad(d.u.Addr)
	case d.isStore():
		restarted = c.completeStore(d)
	case d.u.Class == isa.Branch:
		c.wakeWaiters(d)
		c.resolveBranch(d)
		return
	case d.u.Class == isa.Fence:
		c.syncs.Remove(d.u.Seq)
		if c.chk != nil {
			c.chkFencePerformed(d)
		}
	}
	if !restarted {
		c.wakeWaiters(d)
	}
}

// locateStoreEntry finds d's store queue entry and the queue holding it
// (L1 or, in the hierarchical design, L2 after displacement); the entry is
// nil once the store has left the store queues.
func (c *Core) locateStoreEntry(d *dynUop) (*lsq.StoreQueue, *lsq.StoreEntry) {
	if e := c.l1stq.Find(d.u.Seq); e != nil || c.l2stq == nil {
		return c.l1stq, e
	}
	return c.l2stq, c.l2stq.Find(d.u.Seq)
}

// completeStore captures a store's address and data, fills its SRL slot if
// one was reserved, and performs the load-buffer violation check of
// Sections 3 and 4.2 (cases v/vi). Returns true if a restart was triggered.
func (c *Core) completeStore(d *dynUop) bool {
	wasUnknown := !d.addrKnown
	d.addrKnown = true
	if c.chk != nil {
		// Address and data both available from here on.
		c.chkStoreResolved(d, true)
	}
	if q, e := c.locateStoreEntry(d); e != nil {
		q.Resolve(e, d.u.Addr, d.u.Size)
		e.DataReady = true
	} else if c.srl != nil {
		// A store outside the L1 STQ at completion has reserved its SRL
		// slot, whose index is its store identifier.
		c.srl.Fill(d.storeID, d.u.Addr, d.u.Size)
		// The completing store also performs its temporary forwarding
		// update (it has left the L1 STQ; later independent loads source
		// its data from the FC or the data cache, Section 4.1). Stores can
		// fill their SRL slots out of program order, and after a redo-start
		// flash-clear the forwarding structure may be empty: a late older
		// store must not publish its value as the newest temporary update
		// when a younger already-filled SRL store overlaps it. (The FC's own
		// age guard covers the entry-still-present case; this covers
		// insertion after eviction or discard.)
		if !c.youngerSRLStoreOverlaps(d) {
			if c.fc != nil {
				c.fc.Update(d.u.Addr, d.storeID, d.u.Seq)
			} else if se := c.srl.Get(d.storeID); se != nil {
				c.tempUpdateDataCache(se)
			}
		}
	}
	if wasUnknown {
		c.removeUnknownStore(d)
	}
	// A store whose address was unknown while younger loads executed may
	// expose a memory dependence violation now.
	if v, found := c.ldbuf.StoreCheck(d.u.Addr, d.storeID); found {
		c.res.MemDepViolations++
		c.obsEvent(obs.EvMemDepViolation, d.u.Addr)
		c.mdp.RecordViolation(v.LoadPC, d.u.PC)
		c.wakeWaiters(d)
		c.restart(v.Ckpt, c.cfg.MispredictPenalty)
		return true
	}
	return false
}

// youngerSRLStoreOverlaps reports whether an SRL-resident store younger
// than d has already filled its slot with an address overlapping d's
// write — the witness that d's late temporary update would be stale.
func (c *Core) youngerSRLStoreOverlaps(d *dynUop) bool {
	if c.srl == nil {
		return false
	}
	lo, hi := d.u.Addr, d.u.Addr+uint64(d.u.Size)
	found := false
	c.srl.ForEach(func(_ int, e *lsq.StoreEntry) {
		if !found && e.Seq > d.u.Seq && e.AddrKnown && e.DataReady &&
			e.Addr < hi && lo < e.Addr+uint64(e.Size) {
			found = true
		}
	})
	return found
}

func (c *Core) removeUnknownStore(d *dynUop) {
	d.inUnknownList = false
	out := c.unknownStores[:0]
	for _, s := range c.unknownStores {
		if s != d {
			out = append(out, s)
		}
	}
	c.unknownStores = out
}

// resolveBranch triggers misprediction recovery (the predictor itself was
// trained in program order at allocation).
func (c *Core) resolveBranch(d *dynUop) {
	if d.brResolved {
		return // replayed after recovery; the front end knows the outcome
	}
	d.brResolved = true
	if d.predTaken != d.u.Taken {
		c.res.BranchMispredicts++
		c.obsEvent(obs.EvBranchMispredict, d.u.PC)
		c.restart(d.ckptID, c.cfg.MispredictPenalty)
	}
}

// --- commit ---

func (c *Core) commitCheckpoints() {
	for {
		ck := &c.ckpts[0]
		if !ck.closed || ck.pending > 0 {
			return
		}
		// Bulk commit (CPR commits a checkpoint instantaneously once its
		// completion counter reaches zero).
		c.obsEvent(obs.EvCheckpointCommit, uint64(ck.id))
		endSeq := ck.startSeq + uint64(ck.uops) - 1
		for c.win.len() > 0 && c.win.at(0).u.Seq <= endSeq {
			d := c.win.popFront()
			d.committed = true
			if c.chk != nil {
				// In sequence order, so a store commits before younger loads.
				c.chkCommitUop(d)
			}
			c.committed++
			c.replayPos--
			if d.isLoad() {
				c.loadsInWindow--
				if c.measuring {
					c.res.Loads++
				}
			}
			if d.isStore() {
				c.storesInWindow--
				if c.measuring {
					c.res.Stores++
					if d.everRedone {
						c.res.RedoneStores++
					}
				}
			}
			if d.u.Class == isa.Fence && c.measuring {
				c.res.Fences++
			}
			c.freeUop(d)
		}
		c.ldbuf.CommitCkpt(ck.id)
		c.mem.L1.CommitSpec(ck.id)
		if c.chk != nil {
			c.chkSweep()
		}
		c.ckpts = c.ckpts[:copy(c.ckpts, c.ckpts[1:])]
		if len(c.ckpts) == 0 {
			// Always keep a live checkpoint to allocate into.
			c.newCheckpoint(endSeq + 1)
		}
	}
}

// --- issue ---

func (c *Core) issue() {
	// Re-arm uops deferred to this cycle (MSHR-full retries).
	for _, d := range c.deferred {
		if d.allocated && d.inSched {
			c.ready.push(d)
		}
	}
	c.deferred = c.deferred[:0]

	budget := c.cfg.IssueWidth
	loadP := c.cfg.LoadPorts
	storeP := c.cfg.StorePorts
	c.ready.begin()
	for budget > 0 {
		// Parked loads can only issue, so the park lane is visited only
		// while a load port is free (ready.go).
		re, ok := c.ready.next(loadP > 0)
		if !ok {
			break
		}
		d := re.d
		if re.epoch != d.epoch || !d.inSched || d.pendingSrc > 0 {
			continue
		}
		// A parked load's sources were done when it parked, so it cannot
		// have turned poisoned before it issues or is squashed.
		if !d.parked && d.anyPoisonedSrc() {
			c.drainToSDB(d)
			budget--
			continue
		}
		switch d.u.Class {
		case isa.Load:
			if loadP == 0 {
				if d.parked || d.settled() {
					d.parked = true
					c.ready.park(re)
				} else {
					c.ready.keep(re)
				}
				continue
			}
			loadP--
			if d.parked {
				d.parked = false
				c.ready.unpark(re)
			}
		case isa.Store:
			if storeP == 0 {
				c.ready.keep(re)
				continue
			}
			storeP--
		}
		budget--
		c.execute(d)
	}
	c.ready.end()
}

// --- allocate / fetch ---

func (c *Core) allocate() {
	if c.cycle < c.fetchResume {
		return
	}
	budget := c.cfg.AllocWidth
	for budget > 0 {
		replay := c.replayPos < c.win.len()
		var d *dynUop
		if replay {
			d = c.win.at(c.replayPos)
		} else if c.pendingFetch != nil {
			d = c.pendingFetch
		} else {
			if c.win.full() {
				c.res.StallWindow++
				return
			}
			u := c.gen.Next()
			d = c.newDynUop(u)
			c.pendingFetch = d
		}

		// Checkpoint placement: interval boundary, stall-closed checkpoint,
		// or low-confidence branch.
		ck := c.curCkpt()
		needNew := ck.closed || ck.uops >= c.cfg.CkptInterval
		// A fence opens a fresh checkpoint: older stores then sit in
		// older, independently committable checkpoints, so the fence's
		// wait for their drain (fenceReady) can never deadlock against
		// its own checkpoint's completion counter.
		if !needNew && d.u.Class == isa.Fence && ck.uops > 0 {
			needNew = true
		}
		// Forward progress (Section 3): create a checkpoint soon after a
		// restart so the restarted region commits piecewise even if the
		// violation recurs.
		if c.forceShortCkpt && ck.uops >= 8 && len(c.ckpts) < c.cfg.Checkpoints {
			needNew = true
			c.forceShortCkpt = false
		}
		// Miss-free store pressure: close the checkpoint proactively so
		// resident stores become commit-eligible before a small store
		// queue fills (CPR adapts checkpoint boundaries to resource
		// pressure). The threshold is the in-window store population —
		// deliberately independent of the design's store queue size, so
		// every design sees the same checkpoint cadence and none gets a
		// cheaper-misprediction subsidy. During a miss the window must
		// keep growing instead; that is the behaviour under study.
		if !needNew && c.outstandingMisses == 0 && ck.uops >= 64 &&
			len(c.ckpts) < c.cfg.Checkpoints && c.storesInWindow >= 36 {
			needNew = true
		}
		// CPR places extra checkpoints at low-confidence branches so a
		// likely misprediction rolls back cheaply — but spends them
		// sparingly, since exhausting the checkpoint budget caps the
		// in-flight window.
		if !needNew && d.u.Class == isa.Branch && ck.uops >= 32 && !d.brResolved &&
			len(c.ckpts) < c.cfg.Checkpoints-1 {
			ci := (d.u.PC >> 2) & uint64(len(c.conf)-1)
			if c.conf[ci] < 2 {
				needNew = true
			}
		}
		if needNew {
			if len(c.ckpts) == c.cfg.Checkpoints {
				c.res.StallCkpt++
				return
			}
			ck.closed = true
			ck = c.newCheckpoint(d.u.Seq)
		}

		// Resource checks. A stall with no older checkpoint left to commit
		// would deadlock (the stalled resource frees only after commit, and
		// commit needs this checkpoint to close), so the checkpoint is
		// closed at the stall point in that case.
		if !c.schedAvail(d.u.Class) {
			c.res.StallSched++
			c.maybeCloseCkptOnStall()
			return
		}
		if !c.regAvail(d) {
			c.res.StallRegs++
			c.maybeCloseCkptOnStall()
			return
		}
		if d.isLoad() && c.loadsInWindow >= c.cfg.LQSize {
			c.res.StallLQ++
			c.maybeCloseCkptOnStall()
			return
		}
		if d.isStore() && !c.allocStoreEntry(d, ck.id) {
			if c.srlMode() {
				c.res.Metrics.Inc(obs.MetricSTQStallSRLMode)
			} else if c.outstandingMisses > 0 {
				c.res.Metrics.Inc(obs.MetricSTQStallMissMode)
			} else {
				c.res.Metrics.Inc(obs.MetricSTQStallQuiet)
			}
			c.maybeCloseCkptOnStall()
			return
		}

		// Commit the allocation.
		if !replay {
			c.win.push(d)
			c.pendingFetch = nil
		}
		c.replayPos++
		budget--
		d.allocated = true
		d.ckptID = ck.id
		ck.pending++
		ck.uops++

		// Dependences from the rename state. A stale lastWriter reference
		// means the producer committed (its value is architectural), so the
		// source needs no producer link — same as the register being clean.
		d.pendingSrc = 0
		d.prod[0], d.prod[1] = uopRef{}, uopRef{}
		for i, src := range [2]int8{d.u.Src1, d.u.Src2} {
			if src == isa.NoReg {
				continue
			}
			r := c.lastWriter[src]
			p := r.live()
			if p == nil {
				continue
			}
			d.prod[i] = r
			if !p.done && !p.poisoned {
				c.addWaiter(p, d)
			}
		}
		if d.u.Dst != isa.NoReg {
			c.lastWriter[d.u.Dst] = ref(d)
			c.regTake(d)
		}
		c.schedTake(d.u.Class)
		d.inSched = true

		switch d.u.Class {
		case isa.Store:
			c.storesInWindow++
		case isa.Load:
			d.nearestStoreID = c.storeCounter - 1
			c.order.Add(d.u.Seq)
			c.loadsInWindow++
			if d.u.Acq {
				c.syncs.Add(d.u.Seq)
			}
			if c.chk != nil {
				c.chkLoadAlloc(d)
			}
		case isa.Fence:
			c.syncs.Add(d.u.Seq)
			if c.chk != nil {
				c.chkFenceAlloc(d)
			}
		case isa.Branch:
			// Predict and train in program order at allocation (the
			// front end sees branches in order; training at out-of-order
			// resolution would scramble the global history). The
			// mispredict penalty is still paid at resolution.
			if !d.bpTrained {
				d.predTaken = c.bp.PredictAndTrain(d.u.PC, d.u.Taken)
				ci := (d.u.PC >> 2) & uint64(len(c.conf)-1)
				if d.predTaken == d.u.Taken {
					if c.conf[ci] < 15 {
						c.conf[ci]++
					}
				} else {
					c.conf[ci] = 0
				}
				d.bpTrained = true
			}
			if d.brResolved {
				d.predTaken = d.u.Taken
			}
		}

		if d.pendingSrc == 0 {
			c.ready.push(d)
		}
	}
}

// maybeCloseCkptOnStall closes the current checkpoint during a resource
// stall so its completed work can bulk-commit and release the stalled
// resource (CPR adapts checkpoint boundaries to resource pressure; without
// this, a store queue sized below checkpoint-span x store-fraction would
// stall even in miss-free execution).
func (c *Core) maybeCloseCkptOnStall() {
	ck := c.curCkpt()
	if ck.uops == 0 || ck.closed {
		return
	}
	// In miss-free execution commit is only waiting for the checkpoint to
	// close, so adapt. During a long-latency miss the oldest checkpoint
	// cannot commit anyway; closing here would only fragment the window
	// (the baseline's store-queue-bound stall in a miss shadow is exactly
	// the behaviour under study). The single-checkpoint case is a deadlock
	// escape and always closes.
	if c.outstandingMisses == 0 || len(c.ckpts) == 1 {
		ck.closed = true
	}
}

// allocStoreEntry assigns the store's identifier and allocates its store
// queue entry per design. Returns false (and records the stall) when the
// design's store buffering is exhausted — the effect Figure 2 measures.
func (c *Core) allocStoreEntry(d *dynUop, ckptID int) bool {
	if d.storeID == 0 {
		d.storeID = c.storeCounter
	}
	c.storeCounter = d.storeID + 1

	entry := lsq.StoreEntry{
		Seq: d.u.Seq, Ckpt: ckptID, SRLIndex: d.storeID, Rel: d.u.Rel,
	}
	if c.cfg.Design == DesignHierarchical && c.l1stq.Full() {
		// Displace the L1 STQ head (the oldest store) into the L2 STQ.
		if c.l2stq.Full() {
			c.res.StallSTQ++
			return false
		}
		he, _ := c.l1stq.PopHead()
		c.l2stq.Alloc(he)
	}
	if !c.l1stq.Alloc(entry) {
		c.res.StallSTQ++
		return false
	}
	if c.chk != nil {
		c.chkStoreAlloc(d)
	}
	return true
}

func (c *Core) noteRecentLoad(addr uint64) {
	c.recentLoads[c.rlPos] = addr
	c.rlPos = (c.rlPos + 1) % len(c.recentLoads)
}
