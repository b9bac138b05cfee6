package core

import "srlproc/internal/obs"

// obsState is the per-core observability machinery, allocated only when
// Config.Obs enables something. The core holds it as a single pointer:
// an unobserved run's entire per-cycle cost is the `c.obsrv != nil` test
// in step (and the same test at the event hook sites, which fire far less
// than once per cycle). That is the zero-overhead-when-disabled guarantee
// BenchmarkCycleLoopObsOff pins down.
type obsState struct {
	sampleEvery uint64
	// nextSample is the cycle of the next timeline sample (^0 if
	// disabled). It is a first-class wake-up event in the cycle-skip
	// engine's nextEventCycle (skip.go): a fast-forward never jumps over
	// a sample boundary, so enabling -timeline/-trace-out changes neither
	// the skip decisions' outcomes nor any sampled value — samples always
	// land on real steps and see exactly the counters a stepped run shows.
	nextSample uint64
	timeline   *obs.Timeline
	trace      *obs.TraceWriter

	// Baselines for window-relative deltas. committed never resets, but
	// the res.* counters do (at the warmup boundary), so resetStats
	// re-baselines everything.
	lastCycle     uint64
	lastCommitted uint64
	lastStalls    obs.StallBreakdown
	lastForwards  obs.ForwardMix
	lastRestarts  uint64
}

// newObsState builds the observability state for cfg, or nil when
// observability is disabled.
func newObsState(cfg obs.Config) *obsState {
	if !cfg.Enabled() {
		return nil
	}
	o := &obsState{
		sampleEvery: cfg.SampleEvery,
		nextSample:  ^uint64(0),
		timeline:    cfg.NewTimeline(),
		trace:       cfg.NewTraceWriter(),
	}
	if o.timeline != nil {
		o.nextSample = cfg.SampleEvery
	}
	return o
}

// obsEvent records a typed pipeline event when tracing is enabled. The
// call sites are off the per-cycle path (checkpoints, restarts, miss
// returns), so the double nil-test is all a disabled run pays there. The
// differential checker keeps its own small ring of recent events so a
// divergence can carry context even when tracing is off.
func (c *Core) obsEvent(kind obs.EventKind, arg uint64) {
	if c.obsrv != nil && c.obsrv.trace != nil {
		c.obsrv.trace.Record(c.cycle, kind, arg)
	}
	if c.chk != nil {
		c.chk.noteEvent(obs.Event{Cycle: c.cycle, Kind: kind, Arg: arg})
	}
}

// obsRebaseline re-anchors window deltas after a stats reset (the warmup
// boundary zeroes the res.* counters the sampler differences against).
func (c *Core) obsRebaseline() {
	o := c.obsrv
	o.lastCycle = c.cycle
	o.lastCommitted = c.committed
	o.lastStalls = obs.StallBreakdown{}
	o.lastForwards = obs.ForwardMix{}
	o.lastRestarts = 0
}

// obsStalls snapshots the cumulative stall-cause counters.
func (c *Core) obsStalls() obs.StallBreakdown {
	return obs.StallBreakdown{
		STQ:    c.res.StallSTQ,
		LQ:     c.res.StallLQ,
		Sched:  c.res.StallSched,
		Regs:   c.res.StallRegs,
		Ckpt:   c.res.StallCkpt,
		Window: c.res.StallWindow,
		SDB:    c.res.StallSDB,
	}
}

// obsForwards snapshots the cumulative forwarding-source counters.
func (c *Core) obsForwards() obs.ForwardMix {
	return obs.ForwardMix{
		L1STQ:   c.res.L1STQForwards,
		L2STQ:   c.res.L2STQForwards,
		FC:      c.res.FCForwards,
		Indexed: c.res.IndexedForwards,
	}
}

// obsSample closes the current cycle window: one Sample with the window's
// committed-uop rate, stall-cause and forwarding deltas, plus the
// machine's instantaneous occupancies, appended to the timeline.
func (c *Core) obsSample() {
	o := c.obsrv
	o.nextSample = c.cycle + o.sampleEvery
	winCycles := c.cycle - o.lastCycle
	if winCycles == 0 {
		return
	}
	uops := c.committed - o.lastCommitted
	stalls := c.obsStalls()
	fwd := c.obsForwards()
	s := obs.Sample{
		Cycle:             c.cycle,
		Measuring:         c.measuring,
		Uops:              uops,
		IPC:               float64(uops) / float64(winCycles),
		SRLOcc:            c.srlLen(),
		STQOcc:            c.l1stq.Len(),
		LoadBufOcc:        c.ldbuf.Len(),
		WindowOcc:         c.win.len(),
		SDBOcc:            c.sdb.Len(),
		Ckpts:             len(c.ckpts),
		OutstandingMisses: c.outstandingMisses,
		RedoActive:        c.redoActive,
		Stalls:            stalls.Sub(o.lastStalls),
		Forwards:          fwd.Sub(o.lastForwards),
		Restarts:          c.res.Restarts - o.lastRestarts,
	}
	if c.l2stq != nil {
		s.L2STQOcc = c.l2stq.Len()
	}
	o.timeline.Append(s)
	o.lastCycle = c.cycle
	o.lastCommitted = c.committed
	o.lastStalls = stalls
	o.lastForwards = fwd
	o.lastRestarts = c.res.Restarts
}

// obsFinalize flushes the tail window and hands the run's observability
// artefacts to the results.
func (c *Core) obsFinalize() {
	o := c.obsrv
	if o == nil {
		return
	}
	if o.timeline != nil && c.cycle > o.lastCycle {
		c.obsSample()
	}
	c.res.Timeline = o.timeline
	c.res.Trace = o.trace
}
