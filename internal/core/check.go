package core

import (
	"sort"

	"srlproc/internal/lsq"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
)

// checker bridges the core to the differential oracle (internal/oracle):
// it owns the lockstep reference memory system, a small ring of recent
// pipeline events for divergence context, and the structure-invariant
// sweeps that cross-check the LCF, SRL, load buffer and WAR tracker
// against first-principles definitions. Everything here observes; nothing
// feeds back into the simulation, so a checked run's timing is
// bit-identical to an unchecked one (TestCheckedRunMatchesUnchecked).
type checker struct {
	o *oracle.Oracle

	// Recent typed events (restarts, redo episodes, violations), attached
	// to each retained divergence for post-mortem context.
	recent [64]obs.Event
	rpos   int
	rlen   int

	// drains counts SRL head drains for the sampled WAR cross-check.
	drains uint64

	// scratch for the load-buffer monotonicity sweep.
	lbScratch []lbPair
}

type lbPair struct{ seq, nearest uint64 }

// warSampleMask samples the O(window) WAR cross-check every 64th SRL drain.
const warSampleMask = 63

func newChecker(c *Core) *checker {
	k := &checker{}
	// The decision-time memory-staleness check demands that the design's
	// search machinery finds every resolved+ready older store at load
	// issue. The CAM designs promise that; the SRL design only does with
	// the LCF (a zero counter proves absence) — without it, loads
	// legitimately speculate past matching SRL stores (FC capacity
	// eviction, discarded §6.5 temporary updates) and the load buffer
	// catches them later, so only the commit-time checks apply.
	strict := c.cfg.Design != DesignSRL || c.cfg.UseLCF
	k.o = oracle.New(oracle.Options{
		StrictMemory: strict,
		OnDivergence: func(d *oracle.Divergence) {
			d.Events = k.recentEvents()
			// After the snapshot, so the divergence doesn't record itself.
			c.obsEvent(obs.EvDivergence, d.Addr)
		},
	})
	return k
}

func (k *checker) noteEvent(e obs.Event) {
	k.recent[k.rpos] = e
	k.rpos = (k.rpos + 1) % len(k.recent)
	if k.rlen < len(k.recent) {
		k.rlen++
	}
}

// recentEvents returns the ring's contents oldest-first.
func (k *checker) recentEvents() []obs.Event {
	if k.rlen == 0 {
		return nil
	}
	out := make([]obs.Event, 0, k.rlen)
	start := (k.rpos - k.rlen + len(k.recent)) % len(k.recent)
	for i := 0; i < k.rlen; i++ {
		out = append(out, k.recent[(start+i)%len(k.recent)])
	}
	return out
}

// --- hook wrappers (each call site guards on c.chk != nil) ---

func (c *Core) chkStoreAlloc(d *dynUop) {
	c.chk.o.StoreAlloc(c.cycle, d.u.Seq, d.storeID, d.u.Rel)
}

func (c *Core) chkLoadAlloc(d *dynUop) {
	c.chk.o.LoadAlloc(c.cycle, d.u.Seq, d.u.Acq)
}

func (c *Core) chkFenceAlloc(d *dynUop) {
	c.chk.o.FenceAlloc(c.cycle, d.u.Seq)
}

func (c *Core) chkFencePerformed(d *dynUop) {
	c.chk.o.FencePerformed(c.cycle, d.u.Seq)
}

func (c *Core) chkStoreResolved(d *dynUop, ready bool) {
	c.chk.o.StoreResolved(c.cycle, d.u.Seq, d.u.Addr, d.u.Size, ready)
}

func (c *Core) chkStoreDrained(seq uint64) {
	c.chk.o.StoreDrained(c.cycle, seq)
}

// chkSRLDrained records an SRL head drain and runs the sampled WAR
// cross-check: with the order tracker enabled, no load older than the
// drained store may still be unexecuted in the window (the tracker's gate
// is supposed to have held the head back).
func (c *Core) chkSRLDrained(seq uint64) {
	k := c.chk
	k.o.StoreDrained(c.cycle, seq)
	k.drains++
	if !c.cfg.UseWARTracker || k.drains&warSampleMask != 0 {
		return
	}
	for i := 0; i < c.win.len(); i++ {
		d := c.win.at(i)
		if d.u.Seq >= seq {
			break
		}
		if d.allocated && !d.done && d.isLoad() {
			k.o.Report(oracle.Divergence{
				Kind: oracle.KindWARGate, Cycle: c.cycle,
				LoadSeq: d.u.Seq, StoreSeq: seq, Addr: d.u.Addr,
				Detail: "SRL head drained past an unexecuted older load",
			})
			return
		}
	}
}

func (c *Core) chkLoadDecision(d *dynUop, kind oracle.ForwardKind, producer uint64) {
	c.chk.o.LoadDecision(c.cycle, d.u.Seq, d.u.Addr, kind, producer)
}

func (c *Core) chkCommitUop(d *dynUop) {
	if d.isLoad() {
		c.chk.o.CommitLoad(c.cycle, d.u.Seq)
	} else if d.isStore() {
		c.chk.o.CommitStore(c.cycle, d.u.Seq)
	}
}

func (c *Core) chkSquash(fromSeq uint64) {
	c.chk.o.Squash(fromSeq)
}

// chkFinish closes the run: one last sweep, the oracle's end-of-run image
// cross-check, and surfacing the verdict into Results.
func (c *Core) chkFinish() {
	c.chkSweep()
	c.chk.o.Finish(c.cycle)
	c.res.Divergences = c.chk.o.Divergences()
	c.res.DivergenceCount = c.chk.o.Count()
}

// chkSweep cross-checks structure invariants from first principles. It
// runs at every checkpoint commit, at redo-episode end, and at finalize —
// the points the paper's argument leans on the structures being coherent.
func (c *Core) chkSweep() {
	k := c.chk
	if c.srl != nil && !c.srl.Empty() {
		// SRL FIFO order: sequence numbers strictly increasing head to
		// tail, virtual indices consecutive from the base — the "no CAM
		// needed" premise of Section 4.
		base := c.srl.HeadIndex()
		prevSeq := uint64(0)
		c.srl.ForEach(func(i int, e *lsq.StoreEntry) {
			if e.Seq <= prevSeq && i > 0 {
				k.o.Report(oracle.Divergence{
					Kind: oracle.KindSRLOrder, Cycle: c.cycle, StoreSeq: e.Seq,
					Expected: prevSeq, Actual: e.Seq,
					Detail: "SRL residency out of program order",
				})
			}
			prevSeq = e.Seq
			if e.SRLIndex != base+uint64(i) {
				k.o.Report(oracle.Divergence{
					Kind: oracle.KindSRLOrder, Cycle: c.cycle, StoreSeq: e.Seq,
					Expected: base + uint64(i), Actual: e.SRLIndex,
					Detail: "SRL virtual index not consecutive from base",
				})
			}
			// LCF coverage (Section 4.3's no-false-negatives guarantee): a
			// zero counter while a counted matching store sits in the SRL
			// would let a dependent load skip its check entirely.
			if c.lcf != nil && e.AddrKnown && e.LCFCounted {
				if may, _ := c.lcf.Peek(e.Addr); !may {
					k.o.Report(oracle.Divergence{
						Kind: oracle.KindLCFFalseNegative, Cycle: c.cycle,
						StoreSeq: e.Seq, Addr: e.Addr,
						Detail: "LCF counter zero for a counted SRL-resident store",
					})
				}
			}
		})
	}
	// Load-buffer nearest-store monotonicity: identifiers are assigned in
	// allocation order, so sorting resident entries by sequence number
	// must leave NearestStoreID non-decreasing — the magnitude-comparison
	// age test of Section 3 depends on it.
	k.lbScratch = k.lbScratch[:0]
	c.ldbuf.ForEach(func(e *lsq.LoadEntry) {
		k.lbScratch = append(k.lbScratch, lbPair{seq: e.Seq, nearest: e.NearestStoreID})
	})
	sort.Slice(k.lbScratch, func(i, j int) bool { return k.lbScratch[i].seq < k.lbScratch[j].seq })
	for i := 1; i < len(k.lbScratch); i++ {
		if k.lbScratch[i].nearest < k.lbScratch[i-1].nearest {
			k.o.Report(oracle.Divergence{
				Kind: oracle.KindLoadBufOrder, Cycle: c.cycle,
				LoadSeq:  k.lbScratch[i].seq,
				Expected: k.lbScratch[i-1].nearest, Actual: k.lbScratch[i].nearest,
				Detail: "load-buffer nearest-store identifiers not monotonic in program order",
			})
			break
		}
	}
}
