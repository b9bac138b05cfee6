package core

import (
	"srlproc/internal/cachesim"
	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
)

// poisonThreshold: a load whose data will take longer than this many cycles
// is treated as a long-latency miss — its destination is poisoned and its
// forward slice drains out of the pipeline (CFP).
const poisonThreshold = 50

// execute dispatches an issued uop (all sources available and clean).
func (c *Core) execute(d *dynUop) {
	switch d.u.Class {
	case isa.Load:
		c.executeLoad(d)
	case isa.Fence:
		// A fence performs only once every older load has performed, every
		// older sync has performed, and every older store has drained out of
		// the store FIFOs (fenceReady). Until then it retries each cycle
		// from the deferred list without leaving the scheduler.
		if !c.fenceReady(d) {
			c.metrics.Inc(obs.MetricFenceWaitCycles)
			c.deferOneCycle(d)
			return
		}
		c.leaveSched(d)
		pushCmpl(&c.cmpl, c.cycle+d.u.Class.Latency(), d)
	default:
		// A store's execution is address generation and data capture; its
		// architectural memory update happens later, in order, from the
		// store queues.
		c.leaveSched(d)
		pushCmpl(&c.cmpl, c.cycle+d.u.Class.Latency(), d)
	}
}

func (c *Core) leaveSched(d *dynUop) {
	if d.inSched {
		d.inSched = false
		c.schedFree(d.u.Class)
	}
}

// waitOn parks d in the scheduler until producer s is available. If s is
// already available the uop simply retries next cycle.
func (c *Core) waitOn(d, s *dynUop) {
	if !d.inSched {
		d.inSched = true
		c.schedTake(d.u.Class)
	}
	if s.done || s.poisoned || !s.allocated {
		c.deferOneCycle(d)
		return
	}
	c.addWaiter(s, d)
}

// deferOneCycle retries d next cycle (structural hazard such as a full
// MSHR file).
func (c *Core) deferOneCycle(d *dynUop) {
	c.deferred = append(c.deferred, d)
}

// blockOnStore makes load d wait for store s: if the store is part of the
// miss slice the load joins the slice (poison bits via the dependence
// predictor, Section 2.1); otherwise it waits in the scheduler.
func (c *Core) blockOnStore(d, s *dynUop) {
	d.memDep = ref(s)
	if s.poisoned && !s.done {
		c.leaveSched(d)
		c.drainToSDB(d)
		return
	}
	c.waitOn(d, s)
}

// predictedDependentStore returns the youngest older unknown-address store
// the store-sets predictor believes the load depends on, or nil.
func (c *Core) predictedDependentStore(d *dynUop, seqs []uint64) *dynUop {
	if !c.mdp.DependentOnAny(d.u.PC) {
		return nil
	}
	for _, sq := range seqs { // youngest first
		su := c.uopBySeq(sq)
		if su == nil || !su.allocated || su.done {
			continue
		}
		if c.mdp.Dependent(d.u.PC, su.u.PC) {
			return su
		}
	}
	return nil
}

// blockOnUnknownOlder makes load d wait for the older unknown-address store
// a search found and the dependence predictor says d depends on, if any.
// It reports whether d blocked.
func (c *Core) blockOnUnknownOlder(d *dynUop, sr lsq.SearchResult) bool {
	if !sr.UnknownOlder {
		return false
	}
	s := c.predictedDependentStore(d, sr.UnknownSeqs)
	if s == nil {
		return false
	}
	c.blockOnStore(d, s)
	return true
}

// forwardOnHit handles a store queue search that found an older matching
// store: load d blocks behind it while its data is poisoned, or forwards
// from it at the given latency once its data is ready, counting the
// forward in *forwards. It reports whether d did either; if not, the load
// goes on to the next source.
func (c *Core) forwardOnHit(d *dynUop, sr lsq.SearchResult, latency uint64, kind oracle.ForwardKind, forwards *uint64) bool {
	if !sr.Hit {
		return false
	}
	if sr.PoisonedMatch {
		// The forwarding store's data is poisoned (or not yet captured): the
		// load blocks behind the store (a detected, not merely predicted,
		// memory dependence).
		if su := c.uopBySeq(sr.Entry.Seq); su != nil && !su.done {
			c.blockOnStore(d, su)
			return true
		}
	}
	if !sr.Entry.DataReady {
		return false
	}
	c.finishLoadForward(d, sr.Entry.SRLIndex, latency, kind)
	*forwards++
	return true
}

// uopBySeq finds the in-window dynamic uop with the given sequence number.
func (c *Core) uopBySeq(seq uint64) *dynUop {
	if pos := c.win.indexOfSeq(seq); pos >= 0 {
		return c.win.at(pos)
	}
	return nil
}

// executeLoad runs the full load pipeline: dependence screening, L1 STQ
// search, design-specific secondary forwarding (L2 STQ / FC / LCF+SRL), and
// finally the cache hierarchy.
func (c *Core) executeLoad(d *dynUop) {
	// 0. Release-consistency gate (ordering.go): a load may not perform
	// past an unperformed older fence or load-acquire. The wait is
	// event-driven — the load parks on the sync's waiter list, or joins
	// the slice when the sync is itself miss-dependent. Once passed, the
	// gate stays passed (all older syncs were already allocated, and a
	// performed sync only un-performs through a squash that also squashes
	// this load), so retry paths that bypass executeLoad are safe.
	if s := c.pendingSyncBefore(d.u.Seq); s != nil {
		c.metrics.Inc(obs.MetricLoadsBlockedOnSync)
		c.blockOnStore(d, s)
		return
	}

	// 1. Screen against in-flight stores with unknown (poisoned) addresses
	// using the store-sets memory dependence predictor. A predicted
	// dependence on a slice store makes the load part of the slice
	// (Section 2.1).
	for _, s := range c.unknownStores {
		if s.u.Seq >= d.u.Seq || !s.allocated || s.done {
			continue
		}
		if c.mdp.Dependent(d.u.PC, s.u.PC) {
			c.blockOnStore(d, s)
			return
		}
	}

	// 2. Primary (L1) store queue CAM search. The filtered design screens
	// the search with its membership filter: a filter miss proves no
	// resolved store matches, and a load the dependence predictor considers
	// independent then skips the CAM entirely (the related-work power
	// optimisation) — accepting that a mispredicted dependence on a
	// still-unresolved store is caught later by the load buffer.
	var sr lsq.SearchResult
	if c.cfg.Design == DesignFilteredSTQ && !c.mtb.MightContain(d.u.Addr) &&
		(c.l1stq.UnknownAddrs() == 0 || !c.mdp.DependentOnAny(d.u.PC)) {
		c.metrics.Inc(obs.MetricFilteredSearchesSaved)
	} else {
		sr = c.l1stq.Search(d.u.Addr, d.u.Seq)
	}
	// Unexecuted older stores have unknown addresses: the dependence
	// predictor decides whether the load proceeds past them. Then the
	// youngest older matching store forwards its data, or blocks the load
	// while its data is poisoned.
	if c.blockOnUnknownOlder(d, sr) ||
		c.forwardOnHit(d, sr, c.cfg.L1STQLatency, oracle.FwdL1STQ, &c.res.L1STQForwards) {
		return
	}

	// 3. Design-specific secondary forwarding.
	switch c.cfg.Design {
	case DesignHierarchical:
		if c.mtb.MightContain(d.u.Addr) {
			// Forwarding from the L2 STQ costs the L2 STQ's access latency
			// (8 cycles) — the disadvantage SRL forwarding at L1-hit
			// latency avoids (Section 6.1).
			sr2 := c.l2stq.Search(d.u.Addr, d.u.Seq)
			if c.blockOnUnknownOlder(d, sr2) ||
				c.forwardOnHit(d, sr2, c.cfg.L2STQLatency, oracle.FwdL2STQ, &c.res.L2STQForwards) {
				return
			}
		}
	case DesignSRL:
		if c.srlMode() {
			if c.fc != nil {
				if hit, ok := c.fc.Lookup(d.u.Addr, d.u.Seq); ok {
					c.finishLoadForward(d, hit.SRLIndex, c.cfg.L1STQLatency, oracle.FwdFC)
					c.res.FCForwards++
					return
				}
			} else if c.mem.L1.HasTempSpec(d.u.Addr) {
				// §6.5 variant: the data cache itself holds the youngest
				// independent store's temporary value for this line; the
				// load reads it at L1-hit latency. Relative age is not
				// recorded per line, so the load is treated as forwarded
				// from its youngest older store; an intervening dependent
				// store's later fill is caught by the load buffer.
				c.finishLoadForward(d, d.nearestStoreID, c.cfg.L1STQLatency, oracle.FwdTempCache)
				c.res.FCForwards++
				return
			}
			if !c.srl.Empty() {
				if c.lcf != nil {
					mayMatch, lastIdx := c.lcf.Probe(d.u.Addr)
					if mayMatch {
						if c.tryIndexedForward(d, lastIdx) {
							return
						}
						c.stallOnSRL(d)
						return
					}
					// Zero counter: provably no matching store in the SRL.
				} else if c.srl.HeadIndex() <= d.nearestStoreID {
					// No LCF (Figure 8's worst bar): a load cannot prove
					// the SRL holds no matching older store, so it stalls
					// until every older store has drained — in the miss
					// shadow just as in the redo phase. A shadow-resident
					// store's value lives only in the FC or temporary
					// cache, both of which evict; memory stays stale until
					// the redo drains, so reading it here is wrong data.
					c.stallOnSRL(d)
					return
				}
			}
		}
	}

	// 4. Data cache hierarchy.
	c.accessCacheForLoad(d)
}

// tryIndexedForward implements indexed forwarding (Section 4.3): read the
// SRL entry whose index the LCF recorded and do one full address+age check
// with a single comparator — no CAM, no search.
func (c *Core) tryIndexedForward(d *dynUop, lastIdx uint64) bool {
	if !c.cfg.UseIndexedFwd {
		return false
	}
	e := c.srl.Get(lastIdx)
	if e == nil {
		return false
	}
	if e.SRLIndex > d.nearestStoreID {
		return false // store is younger than the load
	}
	if !e.DataReady || !e.AddrKnown {
		// A reserved, not-yet-filled slot: the address cannot be compared,
		// so indexed forwarding fails and the load stalls; the retry loop
		// re-attempts every cycle and succeeds as soon as the slot fills
		// (Section 4.2 case iv) or the SRL drains past the load's stores.
		return false
	}
	if e.Addr>>3 != d.u.Addr>>3 {
		return false
	}
	c.res.IndexedForwards++
	c.finishLoadForward(d, e.SRLIndex, c.cfg.L1STQLatency+1, oracle.FwdIndexed)
	return true
}

// stallOnSRL parks a load that may depend on an SRL store it cannot forward
// from; it proceeds once every older store has drained from the SRL (head
// pointer passes the load's nearest-store identifier) or the filter clears.
func (c *Core) stallOnSRL(d *dynUop) {
	c.res.SRLLoadStalls++
	c.leaveSched(d)
	c.srlStalled = append(c.srlStalled, d)
	c.srlRetry.listMuts++
}

// srlRetryMemo lets retrySRLStalled skip a pass whose outcome is already
// known. A pass decides from the stall list, the SRL (emptiness, head
// index, the entry indexed forwarding reads) and the LCF's counters, and
// from nothing else; so when none of the three has changed since a pass
// that released no load, dropped no entry and kept budget to spare, this
// pass would repeat it exactly and can be skipped. Mutation counts prove
// "unchanged": the SRL and LCF keep their own, and listMuts moves on every
// stallOnSRL and every restart's filtering of the list.
type srlRetryMemo struct {
	listMuts uint64
	idle     bool      // the last pass changed nothing
	at       [3]uint64 // the SRL, LCF and list counts it saw
}

func (c *Core) srlRetryKey() [3]uint64 {
	k := [3]uint64{c.srl.Mutations(), 0, c.srlRetry.listMuts}
	if c.lcf != nil {
		k[1] = c.lcf.Mutations()
	}
	return k
}

// retrySRLStalled re-examines stalled loads each cycle.
func (c *Core) retrySRLStalled() {
	if len(c.srlStalled) == 0 {
		return
	}
	c.metrics.Add(obs.MetricSRLStallLoadCycles, uint64(len(c.srlStalled)))
	key := c.srlRetryKey()
	if c.srlRetry.idle && c.srlRetry.at == key {
		return
	}
	idle := true
	// Stalled loads wake as drains release them; the wait buffer can wake
	// several per cycle (they re-enter through the cache port pipeline).
	budget := 4 * c.cfg.LoadPorts
	// Iterate over a snapshot: releasing a load can trigger an
	// overflow-violation restart, and restart rewrites c.srlStalled (and
	// the uops it holds) in place. The list is rebuilt from the snapshot's
	// survivors; a restart's own filtering then composes with appends here
	// instead of racing the iteration.
	pending := append(c.srlRetryScratch[:0], c.srlStalled...)
	c.srlRetryScratch = pending
	c.srlStalled = c.srlStalled[:0]
	for i, d := range pending {
		// A load is stalled exactly while it is on the list, so one that
		// is no longer allocated was squashed by a restart this pass.
		if !d.allocated {
			idle = false
			continue
		}
		if budget == 0 {
			c.srlStalled = append(c.srlStalled, pending[i:]...)
			idle = false
			break
		}
		proceed := c.srl.Empty() || c.srl.HeadIndex() > d.nearestStoreID
		if !proceed && c.lcf != nil {
			if may, _ := c.lcf.Peek(d.u.Addr); !may {
				proceed = true
			}
		}
		if !proceed && c.cfg.UseIndexedFwd && c.lcf != nil {
			if _, lastIdx := c.lcf.Peek(d.u.Addr); c.tryIndexedForward(d, lastIdx) {
				budget--
				idle = false
				continue
			}
		}
		if proceed {
			budget--
			idle = false
			// Re-search the L1 STQ before releasing the load to the cache:
			// an older store may have entered (or completed in) the L1 STQ
			// while the load sat stalled, and skipping the search would
			// silently hand the load pre-store data. The hardware
			// equivalent: a woken load re-enters the load pipeline from the
			// search stage, not the cache stage.
			sr := c.l1stq.Search(d.u.Addr, d.u.Seq)
			if !c.forwardOnHit(d, sr, c.cfg.L1STQLatency, oracle.FwdL1STQ, &c.res.L1STQForwards) {
				c.accessCacheForLoad(d)
			}
			continue
		}
		c.srlStalled = append(c.srlStalled, d)
	}
	c.srlRetry.idle, c.srlRetry.at = idle, key
}

// finishLoadForward completes a load via store forwarding at the given
// latency. kind names the forwarding mechanism for the differential
// checker (which validates the producer at this decision point).
func (c *Core) finishLoadForward(d *dynUop, storeID uint64, latency uint64, kind oracle.ForwardKind) {
	c.leaveSched(d)
	if c.chk != nil {
		c.chkLoadDecision(d, kind, storeID)
	}
	if !c.insertLoadBufEntry(d, storeID) {
		return
	}
	pushCmpl(&c.cmpl, c.cycle+latency, d)
}

// insertLoadBufEntry records a load in the load buffer at the moment it
// consumes its data. Recording at completion instead opens a window (the
// access latency) in which a completing store's check misses the load and a
// stale read commits undetected — the load must be visible to store checks
// and snoops from its decision cycle on. fwdStoreID is the identifier of
// the store that forwarded the load's data, or lsq.NoFwd when it read the
// cache. Returns false when the overflow policy forced a violation restart
// (the load is squashed and replays).
func (c *Core) insertLoadBufEntry(d *dynUop, fwdStoreID uint64) bool {
	entry := lsq.LoadEntry{
		Seq: d.u.Seq, PC: d.u.PC, Addr: d.u.Addr,
		NearestStoreID: d.nearestStoreID, FwdStoreID: fwdStoreID,
		Ckpt: d.ckptID,
	}
	if !c.ldbuf.Insert(entry) {
		c.res.OverflowViolations++
		c.obsEvent(obs.EvOverflowViolation, d.u.Addr)
		c.restart(d.ckptID, c.cfg.MispredictPenalty)
		return false
	}
	return true
}

// accessCacheForLoad sends the load to the memory hierarchy; a long-latency
// miss poisons the destination and drains the load into the SDB.
func (c *Core) accessCacheForLoad(d *dynUop) {
	res := c.mem.Access(c.cycle, d.u.Addr, false)
	if res.MSHRFull {
		if !d.inSched {
			d.inSched = true
			c.schedTake(d.u.Class)
		}
		c.deferOneCycle(d)
		return
	}
	c.leaveSched(d)
	if c.chk != nil {
		// The load's decision happens now — it reads the memory image as of
		// this cycle, even if the data arrives much later.
		c.chkLoadDecision(d, oracle.FwdMemory, lsq.NoFwd)
	}
	if !c.insertLoadBufEntry(d, lsq.NoFwd) {
		return
	}
	if res.Done > c.cycle+poisonThreshold {
		// Long-latency miss: CFP. The load drains to the SDB and its data
		// return re-enters through slice reinsertion.
		switch {
		case d.u.Addr >= 0x8000_0000:
			c.metrics.Inc(obs.MetricMissRegionStream)
		case d.u.Addr >= 0x4000_0000:
			c.metrics.Inc(obs.MetricMissRegionHeap)
		default:
			c.metrics.Inc(obs.MetricMissRegionHot)
		}
		if res.Done-c.cycle > 700 {
			c.metrics.Inc(obs.MetricPoisonNewMiss)
		} else {
			c.metrics.Inc(obs.MetricPoisonMerged)
		}
		d.missReturn = res.Done
		c.outstandingMisses++
		c.drainToSDB(d)
		return
	}
	pushCmpl(&c.cmpl, res.Done, d)
}

// --- store drains ---

// drainStores advances the design-specific store pipelines by one cycle.
func (c *Core) drainStores() {
	switch c.cfg.Design {
	case DesignBaseline, DesignLargeSTQ, DesignFilteredSTQ:
		c.drainCommitted(c.l1stq)
	case DesignHierarchical:
		// The L2 STQ holds the oldest stores once displacement has begun.
		if c.l2stq.Len() > 0 {
			c.drainCommitted(c.l2stq)
		} else {
			c.drainCommitted(c.l1stq)
		}
	case DesignSRL:
		if c.srlMode() {
			c.moveL1STQToSRL()
			c.drainSRLHead()
		} else {
			c.drainCommitted(c.l1stq)
		}
		c.srlOcc.Set(c.cycle, uint64(c.srl.Len()))
	}
}

// drainCommitted retires the queue head's store to the data cache once its
// checkpoint has committed (conventional in-order memory update).
func (c *Core) drainCommitted(q *lsq.StoreQueue) {
	// Bulk commit makes whole checkpoints' stores drain-eligible at once;
	// two combined writes per cycle absorb the burst (write combining).
	for i := 0; i < 2*c.cfg.StorePorts; i++ {
		h := q.Head()
		if h == nil || !c.seqCommitted(h.Seq) || !h.DataReady {
			return
		}
		res := c.mem.Access(c.cycle, h.Addr, true)
		if res.MSHRFull {
			return
		}
		if c.snoopSink != nil {
			c.snoopSink(isa.LineAddr(h.Addr))
		}
		seq, addr, storeIdx := h.Seq, h.Addr, h.SRLIndex
		q.PopHead()
		if c.chk != nil {
			c.chkStoreDrained(seq)
		}
		// Safety net mirroring the SRL drain path: a load that read memory
		// while this (older, committed) store was still queued must have
		// forwarded from it or younger — anything else slipped past the
		// issue-time search and is a memory dependence violation.
		if v, found := c.ldbuf.StoreCheck(addr, storeIdx); found {
			c.res.MemDepViolations++
			c.obsEvent(obs.EvMemDepViolation, addr)
			c.restart(v.Ckpt, c.cfg.MispredictPenalty)
			return
		}
	}
}

// moveL1STQToSRL advances the L1 STQ head into the SRL (Section 4.3): a
// completed miss-independent store writes its address and data into the SRL
// and updates the forwarding path; a miss-dependent store reserves its SRL
// slot (recording the index for the later fill) and leaves the L1 STQ.
func (c *Core) moveL1STQToSRL() {
	if c.cycle < c.tempUpdateStall {
		return // §6.5 variant: writeback/conflict holds store processing
	}
	for i := 0; i < 4; i++ { // L1 STQ drain bandwidth
		h := c.l1stq.Head()
		if h == nil {
			return
		}
		if c.srl.Full() {
			return
		}
		if h.DataReady {
			// Independent (completed) store.
			if c.fc == nil {
				// §6.5 variant: the temporary update goes to the data
				// cache, which costs real bandwidth — a dirty block must
				// be written back first and associativity conflicts stall
				// store processing (the costs Figure 10 measures).
				if !c.tempUpdateDataCacheReady(h) {
					return
				}
			}
			if !c.srl.Alloc(*h) {
				return // LCF counter saturated: stall SRL allocation
			}
			// Temporary update for forwarding: the FC, or the data cache
			// itself in the §6.5 variant.
			if c.fc != nil {
				c.fc.Update(h.Addr, h.SRLIndex, h.Seq)
			} else {
				c.tempUpdateDataCache(h)
			}
			c.l1stq.PopHead()
			continue
		}
		// Not yet completed: a miss-dependent (poisoned) store, or a store
		// whose sources are still in flight. A poisoned store always
		// reserves its SRL slot and leaves; a clean in-flight store leaves
		// early only under L1 STQ pressure (displacement, like the
		// hierarchical design's) — otherwise it completes in place within
		// a few cycles and takes the fast independent path above.
		su := c.uopBySeq(h.Seq)
		if su == nil {
			return
		}
		poisonedStore := su.poisoned && !su.done
		pressure := c.l1stq.Len() >= c.l1stq.Cap()/2
		if !su.done && (poisonedStore || pressure) {
			e := *h
			e.DataReady = false
			if !c.srl.Alloc(e) {
				return
			}
			if !poisonedStore && !su.addrKnown && !su.inUnknownList {
				// Its address is unknown for disambiguation until it
				// executes; screen loads against it like any other
				// unknown-address store.
				su.inUnknownList = true
				c.unknownStores = append(c.unknownStores, su)
			}
			c.l1stq.PopHead()
			continue
		}
		// Clean store about to complete: the head waits briefly.
		return
	}
}

// tempUpdateDataCacheReady gates the §6.5 variant's store processing: a
// temporary update to a dirty block must wait for the writeback, an update
// to an absent block must wait for its fetch, and a block speculatively
// owned by another checkpoint stalls store processing entirely (the
// associativity/one-version stalls Section 6.5 describes). Each condition
// holds the L1 STQ head for (at least) a cycle.
func (c *Core) tempUpdateDataCacheReady(h *lsq.StoreEntry) bool {
	ps := c.mem.ProbeState(h.Addr)
	if ps != "l1" {
		// Fetch the block before the temporary update can be applied.
		c.mem.Access(c.cycle, h.Addr, false)
		c.metrics.Inc(obs.MetricTempUpdateFetchStalls)
		return false
	}
	// One version of a block per checkpoint: a temporary update to a block
	// speculatively owned by another live checkpoint stalls store
	// processing until that checkpoint commits (Section 4.3).
	sw := c.mem.L1.SpecWrite(h.Addr, h.Ckpt, true)
	if sw.Conflict {
		if c.ckptIndex(sw.OwnerCkpt) < 0 {
			c.mem.L1.CommitSpec(sw.OwnerCkpt)
			return true
		}
		c.metrics.Inc(obs.MetricTempUpdateVersionStalls)
		c.tempUpdateStall = c.cycle + 2
		return false
	}
	return true
}

// tempUpdateDataCache performs the §6.5 variant's temporary update into the
// L1 data cache, paying the dirty-writeback and fetch costs Section 6.5
// describes.
func (c *Core) tempUpdateDataCache(h *lsq.StoreEntry) {
	sw := c.specWriteResolvingDeadOwners(h.Addr, h.Ckpt, true)
	if !sw.Present {
		c.mem.Access(c.cycle, h.Addr, true)
		sw = c.mem.L1.SpecWrite(h.Addr, h.Ckpt, true)
	}
	if sw.NeededWriteback {
		// The pre-update writeback consumes the cache write port: delay
		// subsequent store processing by holding the drain a cycle.
		c.metrics.Inc(obs.MetricSpecWritebacks)
		c.tempUpdateStall = c.cycle + c.cfg.L2STQLatency
	}
	if sw.Conflict {
		c.metrics.Inc(obs.MetricSpecConflicts)
		c.tempUpdateStall = c.cycle + c.cfg.L2STQLatency
	}
}

// specWriteResolvingDeadOwners performs a speculative cache write (a
// temporary update when temp is set), resolving one-version conflicts
// against checkpoints that no longer exist: a committed owner's line
// becomes architectural; a squashed owner's line was already discarded, so
// any survivor is stale bookkeeping.
func (c *Core) specWriteResolvingDeadOwners(addr uint64, ckpt int, temp bool) cachesim.SpecWriteResult {
	sw := c.mem.L1.SpecWrite(addr, ckpt, temp)
	if sw.Conflict && c.ckptIndex(sw.OwnerCkpt) < 0 {
		c.mem.L1.CommitSpec(sw.OwnerCkpt)
		sw = c.mem.L1.SpecWrite(addr, ckpt, temp)
	}
	return sw
}

// drainSRLHead performs one redo cache update (Section 4.1): the SRL head
// store re-updates the data cache in program order, gated by the
// write-after-read order tracker, and looks up the secondary load buffer to
// detect memory dependence violations (Section 4.2, case vi).
func (c *Core) drainSRLHead() {
	for i := 0; i < c.cfg.StorePorts; i++ {
		h := c.srl.Head()
		if h == nil {
			return
		}
		if !h.DataReady {
			c.metrics.Inc(obs.MetricSRLDrainWaitData)
			return // miss-dependent store not yet re-executed
		}
		if c.cfg.UseWARTracker && !c.order.AllLoadsOlderThanDone(h.Seq) {
			c.metrics.Inc(obs.MetricSRLDrainWaitWAR)
			return // prior loads must read the pre-store memory image first
		}
		// Release-consistency gates (ordering.go): a store-release becomes
		// visible only after every older load has performed, and no store
		// may become visible past an unperformed older fence or acquire.
		// The committed drain path needs no such gates — in-order commit
		// already implies every older op performed — but the SRL drains
		// speculatively, ahead of commit. FaultDropSyncGate removes both
		// gates so the oracle can demonstrate it catches the violations.
		if !c.cfg.FaultDropSyncGate {
			if h.Rel && !c.order.AllLoadsOlderThanDone(h.Seq) {
				c.metrics.Inc(obs.MetricSRLDrainWaitRelease)
				return
			}
			if c.pendingSyncBefore(h.Seq) != nil {
				c.metrics.Inc(obs.MetricSRLDrainWaitSync)
				return
			}
		}
		if c.seqCommitted(h.Seq) {
			// The store's checkpoint has committed: this is an ordinary
			// architectural write (drains run behind bulk commit).
			res := c.mem.Access(c.cycle, h.Addr, true)
			if res.MSHRFull {
				return
			}
		} else {
			sw := c.specWriteResolvingDeadOwners(h.Addr, h.Ckpt, false)
			if sw.Conflict && sw.OwnerTemp {
				// The conflicting version is a stale temporary update; the
				// in-order redo supersedes it. Discard and rewrite (the
				// committed data was written back before the temporary
				// overwrite, so nothing is lost).
				c.mem.L1.Invalidate(h.Addr)
				c.metrics.Inc(obs.MetricSRLDrainTempDiscards)
				sw = c.mem.L1.SpecWrite(h.Addr, h.Ckpt, false)
			}
			if sw.Conflict {
				c.metrics.Inc(obs.MetricSRLDrainSpecConflicts)
				return // one speculative version per block (Section 4.3)
			}
			res := c.mem.Access(c.cycle, h.Addr, true)
			if res.MSHRFull {
				return
			}
			if !sw.Present {
				c.mem.L1.SpecWrite(h.Addr, h.Ckpt, false)
			}
		}
		if c.snoopSink != nil {
			c.snoopSink(isa.LineAddr(h.Addr))
		}
		storeIdx, addr, seq := h.SRLIndex, h.Addr, h.Seq
		if su := c.uopBySeq(h.Seq); su != nil {
			su.everRedone = true // counted once, at commit
		} else {
			c.res.RedoneStores++ // store already committed; count directly
		}
		c.srl.PopHead()
		if c.chk != nil {
			c.chkSRLDrained(seq)
		}
		if c.srl.Empty() {
			if c.redoActive && c.chk != nil {
				c.chkSweep() // redo episode closed: structures quiescent
			}
			c.srlEmptied()
		}
		if v, found := c.ldbuf.StoreCheck(addr, storeIdx); found {
			c.res.MemDepViolations++
			c.obsEvent(obs.EvMemDepViolation, addr)
			c.restart(v.Ckpt, c.cfg.MispredictPenalty)
			return
		}
	}
}

// srlEmptied closes the redo episode once the SRL has drained or been
// squashed empty (the SRL has already reset its LCF). The episode's
// temporary updates are all in the cache now, so FC entries must not
// survive into the next miss episode: stores draining through the normal
// path in between supersede them, and a stale hit would silently forward
// old data.
func (c *Core) srlEmptied() {
	if c.redoActive {
		c.obsEvent(obs.EvRedoEnd, 0)
	}
	c.redoActive = false
	if c.fc != nil {
		c.fc.DiscardAll()
	}
}
