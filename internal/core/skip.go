package core

import "srlproc/internal/obs"

// Event-driven cycle skipping (DESIGN.md §11).
//
// The latency-tolerant designs spend long stretches inside a miss shadow
// doing nothing but ticking c.cycle: every queue blocked, every scheduler
// empty of issuable work, the only per-cycle effect a handful of linear
// "stall/occupancy cycles" counters. This file fast-forwards those gaps
// while staying bit-for-bit identical to plain stepping, by construction:
//
//  1. Arm. After a real cycle, compute the next interesting cycle e — the
//     earliest of the completion-heap head, an MSHR fill return, the SDB
//     head's miss-return wake-up, the front-end redirect resume, the §6.5
//     temporary-update retry, and the timeline sampler's next sample. If
//     e is at least skipMinGap cycles out, snapshot the machine
//     fingerprint, the statistics, and the structure-activity counters,
//     and have the hierarchy log the prefetcher's trainings.
//  2. Probe. The next cycle runs for real — no behaviour is guessed.
//  3. Verify. If the probe changed nothing except per-cycle counters
//     (Results.StallCounts, the metrics obs flags PerCycle) and the
//     counters that pure reads bump (the read block of the structure
//     activity: store-queue searches, filter probes, FC and load-buffer
//     lookups, and the L1 and L2 misses of an access that found every
//     MSHR busy), every cycle until e must repeat it exactly: the machine
//     state is unchanged, every cycle-gated branch in the step functions
//     compares c.cycle against one of the enumerated event thresholds
//     (all >= e), and the only RNG consumer on a quiescent cycle is the
//     snoop coin, which applySkip replays draw-for-draw.
//  4. Jump. Extrapolate the probe's per-cycle deltas across the gap —
//     the read-block deltas into skipState.reads, which snapshotActivity
//     adds, and the logged trainings into the stream table, replayed once
//     per skipped cycle — and set c.cycle = e-1, so the next real step
//     lands exactly on e.
//
// If verification fails — any other counter moved, any structure changed
// length, any scalar differs — the probe was just a normal cycle and
// stepping continues; nothing was skipped, so nothing can be wrong.
//
// A load retrying a full MSHR file, or a committed store's drain retrying
// it, is such a probe: it searches the store queues, probes the filters,
// misses in both caches and changes nothing but, with the prefetcher on,
// the stream table each L1 miss trains. The jump replays those trainings,
// in the probe's order with each skipped cycle as the tick, so the machine
// waits for the next MSHR fill without stepping, prefetcher on or off. The
// replay is exact. A verified probe's every training came from an access
// that found the MSHR file full: any other outcome fills a line, completes
// a uop or takes an MSHR, and each of those vetoes. So every skipped cycle
// makes the same misses in the same order, and since no fill lands before
// e, the prefetches they ask for find the file full and change nothing.
//
// What the probe compares is declared by type, not listed here: Core's
// scalars block, Results' counter blocks, the activity snapshot's read and
// write blocks, and the metric table's PerCycle flags. TestSkipCoverage
// fails on a Core, Results or activity field that none of these, a
// container length or a one-line exemption covers.
//
// The golden design-point suite, the determinism tests, the regression
// corpus and the oracle sweep all run with EventSkip on and off and
// require byte-identical results (skip_test.go, internal/check).

// skipFP is the structural fingerprint of everything a quiescent cycle
// must leave untouched, one plain comparable value: every scalar of the
// machine, each container's length, and a hash of the checkpoint records.
// Lengths stand in for container contents. A pure read — a store-queue
// search, a filter probe, an FC or load-buffer lookup, an access that
// finds every MSHR busy — changes no contents and moves only the read
// block, which the jump extrapolates. Any other path that could change
// contents without changing a length here also moves a write-block
// counter, an event counter or a one-off metric, which verifySkip checks
// separately. The ready list's two lanes count apart: an older load that
// takes the load port only to find every MSHR busy can park a younger one,
// moving it from the main lane to the park lane while the total stays put.
type skipFP struct {
	state        scalars
	lens         skipLens
	ckptSum      uint64
	pendingFetch bool
}

// skipLens holds the length of each Core container, in a field named after
// it (TestSkipCoverage matches the names). The ready list counts each lane
// apart: a load that parks moves from one to the other.
type skipLens struct {
	win, ckpts, cmpl, sdb               int
	ready                               [2]int
	srlStalled, unknownStores, deferred int
	l1stq, l2stq, srl, ldbuf            int
}

// skipSnap is the armed snapshot the probe cycle is verified against.
type skipSnap struct {
	fp     skipFP
	events EventCounts
	stalls StallCounts
	met    obs.MetricSet
	act    activity
}

// skipState is the per-core skip engine, embedded by value in Core so the
// steady state stays allocation-free.
type skipState struct {
	armed bool
	// fails counts consecutive failed verifications and wait is the
	// arming backoff they impose. Snapshot capture is several times the
	// cost of one quiescent step, so arming every cycle of an active
	// phase — where verification keeps failing — is a net loss; backing
	// off exponentially (4..32 cycles) caps that overhead at a few
	// percent while a long gap still gets armed within its first
	// sliver. Backoff shapes only *when* a skip is attempted, never what
	// a skip produces, so it cannot affect results.
	fails uint32
	wait  uint32
	snap  skipSnap
	// reads is what the skipped cycles' pure lookups would have added to
	// the read-block counters; snapshotActivity adds it to the structures'
	// own counts.
	reads readActivity
}

// skipMinGap is the shortest event distance worth probing. A capture +
// verify round costs roughly ten quiescent steps, so chasing the short
// gaps between L1/L2 fill returns loses wall clock; the DRAM-latency miss
// shadows the latency-tolerant designs create are hundreds of cycles and
// carry the whole win.
const skipMinGap = 16

// skipFPCapture captures the structural fingerprint. Every accessor here is
// pure (no counter bumps), so capture itself perturbs nothing.
func (c *Core) skipFPCapture() skipFP {
	fp := skipFP{
		state: c.scalars,
		lens: skipLens{
			win:           c.win.len(),
			ckpts:         len(c.ckpts),
			ready:         c.ready.lens(),
			cmpl:          c.cmpl.Len(),
			sdb:           c.sdb.Len(),
			srlStalled:    len(c.srlStalled),
			unknownStores: len(c.unknownStores),
			deferred:      len(c.deferred),
			l1stq:         c.l1stq.Len(),
			srl:           c.srlLen(),
			ldbuf:         c.ldbuf.Len(),
		},
		ckptSum:      c.ckptSumHash(),
		pendingFetch: c.pendingFetch != nil,
	}
	if c.l2stq != nil {
		fp.lens.l2stq = c.l2stq.Len()
	}
	return fp
}

// ckptSumHash folds the mutable per-checkpoint bookkeeping (id, closed,
// allocated/pending uop counts, start sequence) into one word, so a probe
// that only closed a checkpoint — maybeCloseCkptOnStall's one-shot — still
// vetoes the skip.
func (c *Core) ckptSumHash() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 0x9E3779B97F4A7C15
	}
	for i := range c.ckpts {
		ck := &c.ckpts[i]
		mix(uint64(ck.id))
		if ck.closed {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(ck.uops))
		mix(uint64(ck.pending))
		mix(ck.startSeq)
	}
	return h
}

// nextEventCycle returns the earliest future cycle at which the machine
// can do something a quiescent cycle does not: pop a completion, see a
// memory fill return, wake the SDB head, resume the front end after a
// redirect, retry a §6.5 temporary update, or take a timeline sample.
// These are exactly the c.cycle comparisons the step functions make; any
// behaviour not gated by one of them is caught by the probe instead.
//
// Any event before the horizon makes a skip pointless, so the sources are
// consulted cheapest-first and the walk aborts (ok=false) on the first
// near event. In active phases the completion heap almost always has a
// near head, so this runs per cycle without ever touching the MSHR map.
func (c *Core) nextEventCycle(horizon uint64) (e uint64, ok bool) {
	best := ^uint64(0)
	// consider folds one event in; false means the event is inside the
	// horizon and the caller must bail.
	consider := func(ev uint64) bool {
		if ev <= c.cycle {
			return true // already due; gating logic handles it each step
		}
		if ev < horizon {
			return false
		}
		if ev < best {
			best = ev
		}
		return true
	}
	if c.cmpl.Len() > 0 {
		k, _ := c.cmpl.Min()
		if !consider(k) {
			return 0, false
		}
	}
	if !consider(c.fetchResume) {
		return 0, false
	}
	if !consider(c.tempUpdateStall) {
		return 0, false
	}
	if c.obsrv != nil && c.obsrv.nextSample != ^uint64(0) {
		if !consider(c.obsrv.nextSample) {
			return 0, false
		}
	}
	if d := c.sdbHead(); d != nil && d.missReturn > 0 {
		if !consider(d.missReturn) {
			return 0, false
		}
	}
	if f, fok := c.mem.EarliestPendingFill(c.cycle); fok {
		if !consider(f) {
			return 0, false
		}
	}
	return best, best != ^uint64(0)
}

// maybeSkip runs after every real cycle when Config.EventSkip is set: it
// verifies and applies an armed skip, then re-arms for the next gap when
// the next event is far enough out to be worth a probe.
func (c *Core) maybeSkip() {
	if c.skip.armed {
		c.skip.armed = false
		c.mem.StopTrainings()
		if c.verifySkip() {
			c.applySkip()
			c.skip.fails = 0
		} else {
			if c.skip.fails < 4 {
				c.skip.fails++
			}
			c.skip.wait = 1 << (c.skip.fails + 1)
		}
	}
	if c.skip.wait > 0 {
		c.skip.wait--
		return
	}
	if c.pendingSnoopFire {
		// The fast-forward already drew a snoop arrival for the next
		// cycle; it will be anything but quiescent.
		return
	}
	if _, ok := c.nextEventCycle(c.cycle + skipMinGap); !ok {
		return
	}
	c.skip.snap = c.skipCapture()
	c.skip.armed = true
	c.mem.RecordTrainings()
}

// skipCapture snapshots everything the probe cycle is verified against.
func (c *Core) skipCapture() skipSnap {
	return skipSnap{
		fp:     c.skipFPCapture(),
		events: c.res.EventCounts,
		stalls: c.res.StallCounts,
		met:    c.res.Metrics,
		act:    c.snapshotActivity(),
	}
}

// verifySkip reports whether the probe cycle was quiescent: the
// fingerprint, the write-block activity counters and every Results counter
// outside StallCounts are unchanged, and of the metrics only per-cycle
// ones may have advanced. The read-block counters may have moved, and the
// prefetcher may have trained: the jump replays both. Only finalize fills
// Results.ActivityCounts, so it is compared with zero.
func (c *Core) verifySkip() bool {
	s := &c.skip.snap
	if c.skipFPCapture() != s.fp || c.snapshotActivity().writeActivity != s.act.writeActivity ||
		c.res.EventCounts != s.events || c.res.ActivityCounts != (ActivityCounts{}) {
		return false
	}
	for m, v := range c.res.Metrics {
		if v != s.met[m] && !obs.Metric(m).PerCycle() {
			return false
		}
	}
	return true
}

// applySkip jumps from a verified-quiescent probe cycle to just before
// the next event, extrapolating the probe's per-cycle deltas across the
// gap. The event is recomputed fresh rather than trusted from arm time
// (the probe may have moved it), and the snoop RNG is replayed one draw
// per skipped cycle: if a draw comes up heads, the jump stops just before
// that cycle and pendingSnoopFire makes injectSnoops consume the
// already-drawn coin when the cycle runs for real.
func (c *Core) applySkip() {
	e, ok := c.nextEventCycle(c.cycle + 2)
	if !ok {
		return
	}
	w := e - 1 - c.cycle
	if c.cfg.SnoopsEnabled && c.prof.SnoopPer1KCycles > 0 {
		p := c.prof.SnoopPer1KCycles / 1000.0
		for done := uint64(0); done < w; done++ {
			if c.snoopRNG.Bool(p) {
				c.addSkipDeltas(done)
				c.cycle += done
				c.pendingSnoopFire = true
				return
			}
		}
	}
	c.addSkipDeltas(w)
	c.cycle += w
}

// addSkipDeltas accumulates w more copies of the probe cycle's per-cycle
// deltas: the stall block, the per-cycle metrics and the read-block
// activity counters, the last into skipState.reads, and replays the probe's
// prefetcher trainings for each of the w cycles after it. Everything else
// was verified unchanged, and the occupancy trackers need nothing —
// stats.OccupancyTracker.Set accrues (cycle - lastCycle) at the last
// level, so the next real Set call accounts the gap exactly as per-cycle
// calls at an unchanged level would have.
func (c *Core) addSkipDeltas(w uint64) {
	if w == 0 {
		return
	}
	s := &c.skip.snap
	extrapolateStalls(&c.res.StallCounts, &s.stalls, w)
	for m := range c.res.Metrics {
		if obs.Metric(m).PerCycle() {
			c.res.Metrics[m] += (c.res.Metrics[m] - s.met[m]) * w
		}
	}
	act := c.snapshotActivity()
	extrapolateReads(&c.skip.reads, &act.readActivity, &s.act.readActivity, w)
	c.mem.ReplayTrainings(c.cycle+1, w)
}

// extrapolateStalls adds w more copies of each field's delta since snap
// to cur.
func extrapolateStalls(cur, snap *StallCounts, w uint64) {
	cur.StallSTQ += (cur.StallSTQ - snap.StallSTQ) * w
	cur.StallLQ += (cur.StallLQ - snap.StallLQ) * w
	cur.StallSched += (cur.StallSched - snap.StallSched) * w
	cur.StallRegs += (cur.StallRegs - snap.StallRegs) * w
	cur.StallCkpt += (cur.StallCkpt - snap.StallCkpt) * w
	cur.StallWindow += (cur.StallWindow - snap.StallWindow) * w
	cur.StallSDB += (cur.StallSDB - snap.StallSDB) * w
}

// extrapolateReads adds to off w more copies of each read counter's delta
// from snap to cur.
func extrapolateReads(off, cur, snap *readActivity, w uint64) {
	off.camSearches += (cur.camSearches - snap.camSearches) * w
	off.camEntryOps += (cur.camEntryOps - snap.camEntryOps) * w
	off.lcfProbes += (cur.lcfProbes - snap.lcfProbes) * w
	off.lcfNonZero += (cur.lcfNonZero - snap.lcfNonZero) * w
	off.fcLookups += (cur.fcLookups - snap.fcLookups) * w
	off.mtbProbes += (cur.mtbProbes - snap.mtbProbes) * w
	off.mtbMaybes += (cur.mtbMaybes - snap.mtbMaybes) * w
	off.lbLookups += (cur.lbLookups - snap.lbLookups) * w
	off.lbEntryCmps += (cur.lbEntryCmps - snap.lbEntryCmps) * w
	off.l1Misses += (cur.l1Misses - snap.l1Misses) * w
	off.l2Misses += (cur.l2Misses - snap.l2Misses) * w
}
