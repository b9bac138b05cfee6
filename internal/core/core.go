package core

import (
	"context"
	"fmt"

	"srlproc/internal/bpred"
	"srlproc/internal/cachesim"
	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/memdep"
	"srlproc/internal/obs"
	"srlproc/internal/stats"
	"srlproc/internal/trace"
	"srlproc/internal/xrand"
)

// Core is one simulated latency tolerant processor.
type Core struct {
	cfg  Config
	gen  trace.Source
	prof trace.Profile

	cycle uint64

	// scalars is every other scalar of the machine state, one comparable
	// value: the skip engine compares it whole, so a scalar added there is
	// verified with no edit to skip.go. TestSkipCoverage fails on a scalar
	// declared anywhere else in Core.
	scalars

	// In-flight window; scalars.replayPos is the replay position.
	win *window

	// The checkpoint file, oldest first: at most Config.Checkpoints
	// records, held by value in a slice of that capacity.
	ckpts []ckptState

	// Rename state: last writer of each architectural register
	// (epoch-stamped; a stale reference means the writer committed and the
	// value is architectural).
	lastWriter [isa.NumArchRegs]uopRef

	// Scheduling.
	ready readyList
	cmpl  cmplHeap
	// sdb is the slice data buffer: one bit per sequence number, set while
	// the uop is poisoned (drained and not yet re-inserted). Its oldest
	// entry re-inserts first, so slices re-insert in program order and a
	// consumer can never block the buffer ahead of its producer, which a
	// plain arrival-order FIFO would allow after re-slicing against a
	// second miss. The ring spans the window, so the buffer never fills.
	sdb *lsq.OrderTracker

	// SRL-stalled loads, plus the retry loop's reusable snapshot buffer
	// (the loop must not iterate srlStalled itself: releasing a load can
	// restart the machine, which rewrites the list in place) and its memo
	// of the last idle pass.
	srlStalled      []*dynUop
	srlRetryScratch []*dynUop
	srlRetry        srlRetryMemo

	// In-flight stores with unknown (poisoned) addresses, for the memory
	// dependence predictor to screen loads against.
	unknownStores []*dynUop

	// Uops deferred to the next cycle (MSHR-full retries).
	deferred []*dynUop

	// Steady-state allocation pools. uopFree recycles dynUops popped from
	// the window at commit (epoch-bumped, so stale references
	// self-invalidate); nodeFree recycles waiter-list nodes.
	uopFree  []*dynUop
	nodeFree *waiterNode

	// pendingFetch holds a generated-but-not-yet-allocated uop so that a
	// resource stall never drops an instruction from the stream.
	pendingFetch *dynUop

	// Structures.
	l1stq *lsq.StoreQueue
	l2stq *lsq.StoreQueue // hierarchical only
	mtb   *lsq.MTB        // the filtered STQ's, or the L2 STQ's; the queue keeps it
	srl   *lsq.SRL        // SRL design only
	lcf   *lsq.LCF        // the SRL's; the SRL keeps it
	fc    *lsq.FC
	ldbuf *lsq.LoadBuffer
	// The §4.3 write-after-read bit rings the ordering gates ask
	// (ordering.go): outstanding loads, and outstanding fences and
	// load-acquires.
	order *lsq.OrderTracker
	syncs *lsq.OrderTracker

	mem *cachesim.Hierarchy
	bp  *bpred.Hybrid
	mdp *memdep.StoreSets

	// Branch confidence estimator (for checkpoint placement).
	conf []uint8

	// Snoop injection: the arrival coin and the ring of recent load
	// addresses a snoop targets (scalars.rlPos is its cursor).
	snoopRNG    *xrand.RNG
	recentLoads []uint64

	// skip is the event-driven cycle-skipping engine (see skip.go): it
	// probes one real cycle, verifies the machine was quiescent, and
	// fast-forwards to the next interesting cycle with every
	// cycle-denominated statistic extrapolated across the gap.
	skip skipState

	// snoopSink, when set, receives the line address of every globally
	// visible store this core performs (a multicore system routes these to
	// the other cores' coherence ports).
	snoopSink func(addr uint64)

	// final is the result document Finalize returns, set by its first
	// call. It is a copy of res, not a pointer into the core, so a kept
	// result does not keep the core's window, caches and queues alive.
	final *Results

	// Statistics: the cycle loop counts straight into res, the measured
	// region's document. actBase is the structure-activity snapshot at the
	// region's start, which finalize subtracts.
	res     Results
	actBase activity

	// Observability (nil unless cfg.Obs enables it): the cycle-window
	// sampler and typed event trace. Disabled runs pay one nil test per
	// cycle.
	obsrv *obsState

	// Differential checker (nil unless cfg.Check): the lockstep reference
	// memory system plus structure-invariant sweeps. See check.go.
	chk *checker
}

// scalars is the scalar machine state of a Core (everything but the
// clock), embedded so each field reads as c.<name>.
type scalars struct {
	// Index into win of the next uop to (re)allocate; == win.len() means
	// fetch new.
	replayPos  int
	nextCkptID int

	// Resource occupancy.
	schedInt, schedFP, schedMem int
	regsInt, regsFP             int
	loadsInWindow               int
	storesInWindow              int

	// Store identifier assignment (the paper's store IDs = SRL indices).
	storeCounter uint64

	// Front-end redirect: no allocation before this cycle.
	fetchResume uint64

	// Outstanding memory misses (poisoned loads awaiting data).
	outstandingMisses int

	// redoActive is true from a miss return until the SRL drains empty —
	// the "store redo mode" of Section 4.3.
	redoActive bool

	// tempUpdateStall holds §6.5-variant store processing until this cycle
	// (a temporary update's writeback or conflict).
	tempUpdateStall uint64

	// forceShortCkpt implements CPR's forward-progress rule: after a
	// restart, a new checkpoint is created shortly after the restart point
	// so at least part of the replay always commits.
	forceShortCkpt bool

	rlPos int // next slot of Core.recentLoads

	// pendingSnoopFire marks that the cycle-skip fast-forward already drew
	// this cycle's snoop coin (and it came up heads): injectSnoops must
	// fire without drawing again. See skip.go's applySkip.
	pendingSnoopFire bool

	committed        uint64 // total committed uops
	committedAtReset uint64
	measuring        bool
	statsResetAt     uint64
}

// ProfileFor returns suite's workload profile with cfg's memory-ordering
// workload knobs (FencePer1K, AcquireFrac, ReleaseFrac) mirrored in. Zero
// knobs leave the profile untouched, so pre-existing streams replay
// bit-identically. Every generator built for a Config starts here.
func ProfileFor(cfg Config, suite trace.Suite) trace.Profile {
	prof := trace.ProfileFor(suite)
	prof.FencePer1K = cfg.FencePer1K
	prof.AcquireFrac = cfg.AcquireFrac
	prof.ReleaseFrac = cfg.ReleaseFrac
	return prof
}

// New builds a core for the given configuration and workload suite, over
// a generator for ProfileFor(cfg, suite).
func New(cfg Config, suite trace.Suite) (*Core, error) {
	prof := ProfileFor(cfg, suite)
	return NewFromSource(cfg, trace.NewGenerator(prof, cfg.Seed), prof)
}

// NewFromSource builds a core over an arbitrary micro-op source — e.g. a
// recorded trace file replayed with trace.NewReader — instead of the
// built-in synthetic generators. The profile supplies only the ambient
// workload metadata the core itself consumes (the external snoop rate and
// the suite label on results); pass a zero Profile for none.
func NewFromSource(cfg Config, src trace.Source, prof trace.Profile) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:      cfg,
		gen:      src,
		prof:     prof,
		win:      newWindow(cfg.WindowCap),
		order:    lsq.NewOrderTracker(cfg.WindowCap),
		syncs:    lsq.NewOrderTracker(cfg.WindowCap),
		sdb:      lsq.NewOrderTracker(cfg.WindowCap),
		mem:      cachesim.NewHierarchy(cfg.Mem),
		bp:       bpred.NewHybrid(),
		mdp:      memdep.New(cfg.StoreSetsSize),
		conf:     make([]uint8, 4096),
		snoopRNG: xrand.New(cfg.Seed*7919 + uint64(prof.Suite)),
		obsrv:    newObsState(cfg.Obs),
	}
	c.res = Results{Suite: prof.Suite, Design: cfg.Design, SRLOccupancy: stats.NewOccupancyTracker()}
	c.recentLoads = make([]uint64, 64)
	// Pre-size the ready list and the completion heap from what bounds
	// their live population (the scheduler windows for ready, the memory
	// scheduler for its park lane, since every parked load holds a slot of
	// it, and a completion burst for the heap): after at most one amortized
	// growth lap to the run's true working size, the cycle loop never
	// allocates. Sizing from WindowCap would be correct too but wastes
	// ~0.7 MB per core across a sweep's many short-lived cores.
	c.ready.grow(cfg.SchedInt+cfg.SchedFP+cfg.SchedMem+cfg.IssueWidth, cfg.SchedMem)
	c.cmpl.Grow(256)
	c.uopFree = make([]*dynUop, 0, 64)
	c.ckpts = make([]ckptState, 0, cfg.Checkpoints)
	// Store identifiers start at 1: a load allocated before any store then
	// carries nearestStoreID 0, which every magnitude age comparison reads
	// as "older than all stores". Starting at 0 made that value underflow
	// to ^uint64(0) — the load looked younger than everything, provoking
	// spurious store-check violations and, with indexed forwarding,
	// accepting a younger store as a producer. It also disambiguates
	// dynUop.storeID's 0-means-unassigned sentinel.
	c.storeCounter = 1

	switch cfg.Design {
	case DesignBaseline, DesignLargeSTQ:
		c.l1stq = lsq.NewStoreQueue(cfg.STQSize, nil)
		c.ldbuf = lsq.NewLoadBuffer(cfg.LQSize, cfg.LQSize, lsq.OverflowViolate, 0)
	case DesignFilteredSTQ:
		c.mtb = lsq.NewMTB(cfg.MTBSize)
		c.l1stq = lsq.NewStoreQueue(cfg.STQSize, c.mtb)
		c.ldbuf = lsq.NewLoadBuffer(cfg.LQSize, cfg.LQSize, lsq.OverflowViolate, 0)
	case DesignHierarchical:
		c.mtb = lsq.NewMTB(cfg.MTBSize)
		c.l1stq = lsq.NewStoreQueue(cfg.L1STQSize, nil)
		c.l2stq = lsq.NewStoreQueue(cfg.L2STQSize, c.mtb)
		c.ldbuf = lsq.NewLoadBuffer(cfg.LQSize, cfg.LQSize, lsq.OverflowViolate, 0)
	case DesignSRL:
		if cfg.UseLCF {
			c.lcf = lsq.NewLCF(cfg.LCFSize, cfg.LCFHash, cfg.LCFCounterBits)
		}
		c.l1stq = lsq.NewStoreQueue(cfg.L1STQSize, nil)
		c.srl = lsq.NewSRL(cfg.SRLSize, c.lcf)
		if cfg.UseFC {
			c.fc = lsq.NewFC(cfg.FCSize, cfg.FCAssoc)
		}
		c.ldbuf = lsq.NewLoadBuffer(cfg.LQSize, cfg.LoadBufAssoc, cfg.LoadBufPolicy, cfg.LoadBufVictim)
	default:
		return nil, fmt.Errorf("core: unknown design %v", cfg.Design)
	}

	if c.fc != nil {
		c.fc.FaultInvertAge = cfg.FaultInvertFwdAge
	}
	if cfg.Check {
		c.chk = newChecker(c)
	}

	// The first checkpoint.
	c.newCheckpoint(1)
	return c, nil
}

// srlMode reports whether secondary (shadow-of-miss) store processing is
// active: a long-latency miss is outstanding or the SRL still holds stores.
func (c *Core) srlMode() bool {
	if c.cfg.Design != DesignSRL {
		return false
	}
	return c.outstandingMisses > 0 || !c.srl.Empty()
}

// newCheckpoint opens the youngest checkpoint at startSeq and returns it.
// The pointer is into the checkpoint file: valid until the next commit or
// restart.
func (c *Core) newCheckpoint(startSeq uint64) *ckptState {
	c.ckpts = append(c.ckpts, ckptState{
		id:           c.nextCkptID,
		startSeq:     startSeq,
		startStoreID: c.storeCounter,
		renameSnap:   c.lastWriter,
	})
	c.nextCkptID++
	ck := c.curCkpt()
	c.obsEvent(obs.EvCheckpointCreate, uint64(ck.id))
	return ck
}

// newDynUop hands out a dynamic uop, recycling committed ones. A recycled
// object keeps its (already bumped) epoch so references captured in its
// previous life read as stale.
func (c *Core) newDynUop(u isa.Uop) *dynUop {
	if n := len(c.uopFree); n > 0 {
		d := c.uopFree[n-1]
		c.uopFree = c.uopFree[:n-1]
		*d = dynUop{u: u, ckptID: -1, epoch: d.epoch}
		return d
	}
	return &dynUop{u: u, ckptID: -1}
}

// freeUop recycles a committed uop popped from the window. The epoch bump
// invalidates every outstanding reference (heap entries, producer refs,
// rename snapshots); the fields themselves are wiped only at reuse, so a
// waiter node that still points here sees committed=true and its original
// sequence number — the same inert entry it would have seen before pooling.
func (c *Core) freeUop(d *dynUop) {
	if d.waiters != nil {
		c.freeWaiterChain(d.waiters)
		d.waiters = nil
	}
	d.epoch++
	c.uopFree = append(c.uopFree, d)
}

// newWaiterNode draws a waiter-list node from the pool.
func (c *Core) newWaiterNode() *waiterNode {
	if n := c.nodeFree; n != nil {
		c.nodeFree = n.next
		return n
	}
	return &waiterNode{}
}

// freeWaiterChain returns a whole waiter list to the pool.
func (c *Core) freeWaiterChain(n *waiterNode) {
	for n != nil {
		next := n.next
		n.d = nil
		n.next = c.nodeFree
		c.nodeFree = n
		n = next
	}
}

func (c *Core) curCkpt() *ckptState { return &c.ckpts[len(c.ckpts)-1] }

// ckptIndex returns the position of the live checkpoint with the given id
// in the checkpoint file, or -1 once it has committed or been squashed.
// Ids are monotonic and never reused, so a stale id finds nothing.
func (c *Core) ckptIndex(id int) int {
	for i := range c.ckpts {
		if c.ckpts[i].id == id {
			return i
		}
	}
	return -1
}

// seqCommitted reports whether the uop with sequence number seq has
// committed. Checkpoints are contiguous and commit oldest first, so the
// youngest committed uop is the one just before the oldest live
// checkpoint's first.
func (c *Core) seqCommitted(seq uint64) bool { return seq < c.ckpts[0].startSeq }

// Run simulates until cfg.WarmupUops+cfg.RunUops micro-ops have committed
// and returns the measured-region results. It panics with the
// *NoProgressError RunContext would return if the machine wedges.
func (c *Core) Run() *Results {
	res, err := c.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// ctxPollMask sets how often RunContext polls its context: every
// ctxPollMask+1 simulated cycles (a few microseconds of wall time), so
// cancellation latency is far below any point's runtime while the check
// stays off the per-cycle hot path.
const ctxPollMask = 0x1fff

// progressGuardIters bounds loop iterations between committed-uop advances.
// It is denominated in iterations, not cycles: with EventSkip one iteration
// can cover thousands of simulated cycles, so a cycle-based bound would
// falsely trip on legitimately long miss shadows when skipping is off and
// degenerate to uselessness when it is on. The largest legitimate
// commit-to-commit gap observed across the figure sweeps is a few million
// stepped cycles; 40M iterations is an order of magnitude of headroom while
// still catching a genuinely wedged machine in seconds of wall time. It is
// a variable only so this package's tests can trip it quickly.
var progressGuardIters uint64 = 40_000_000

// NoProgressError is RunContext's error when the forward-progress guard
// trips: progressGuardIters loop iterations passed without a commit, so the
// machine is wedged (a simulator bug). State is the core's diagnostic
// snapshot at that point.
type NoProgressError struct {
	Suite  trace.Suite
	Design StoreDesign
	Cycle  uint64
	State  string
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("core: %s/%s: no forward progress at cycle %d: %s", e.Suite, e.Design, e.Cycle, e.State)
}

// RunContext simulates like Run but with cooperative cancellation: the
// context is polled every few thousand loop iterations and, once it is
// done, the run stops and ctx.Err() is returned (wrapped). The core is left
// mid-flight and must not be reused after a cancelled run. A wedged machine
// stops the run the same way, with a *NoProgressError.
//
// When cfg.EventSkip is set, each real step may be followed by a
// fast-forward over a proven-quiescent gap (see skip.go). The ctx poll
// cadence is iteration-based, so cancellation latency stays wall-clock
// bounded no matter how many simulated cycles a single iteration covers.
func (c *Core) RunContext(ctx context.Context) (*Results, error) {
	var iter, sinceCommit uint64
	lastCommitted := c.committed
	for !c.Done() {
		if iter&ctxPollMask == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("core: %s/%s run aborted at cycle %d: %w",
				c.res.Suite, c.res.Design, c.cycle, ctx.Err())
		}
		c.StepCycle()
		if c.cfg.EventSkip {
			c.maybeSkip()
		}
		iter++
		if c.committed != lastCommitted {
			lastCommitted = c.committed
			sinceCommit = 0
		} else if sinceCommit++; sinceCommit > progressGuardIters {
			return nil, &NoProgressError{Suite: c.res.Suite, Design: c.cfg.Design, Cycle: c.cycle, State: c.debugState()}
		}
	}
	return c.Finalize(), nil
}

// StepCycle advances the machine by exactly one cycle, handling the
// warmup-to-measurement transition. It lets an external driver (a multicore
// system) run several cores in lockstep.
func (c *Core) StepCycle() {
	if !c.measuring && c.committed >= c.cfg.WarmupUops {
		c.resetStats()
		c.measuring = true
	}
	c.step()
}

// Done reports whether the measured region is complete.
func (c *Core) Done() bool {
	return c.measuring && c.committed-c.committedAtReset >= c.cfg.RunUops
}

// MeasuredUops returns micro-ops committed inside the measured region so far.
func (c *Core) MeasuredUops() uint64 {
	if !c.measuring {
		return 0
	}
	return c.committed - c.committedAtReset
}

// Finalize closes the measured region and returns the results. Every
// call returns the same document, which holds no reference to the core.
func (c *Core) Finalize() *Results {
	if c.final == nil {
		c.finalize()
		final := c.res
		c.final = &final
	}
	return c.final
}

// SetSnoopSink registers a callback receiving the line address of every
// globally visible store this core performs. Used by package multicore to
// route real coherence traffic between cores.
func (c *Core) SetSnoopSink(sink func(addr uint64)) { c.snoopSink = sink }

// ExternalSnoop delivers another processor's store to this core's coherence
// port: the line is invalidated and the (secondary) load buffer is searched;
// a hit is a multiprocessor ordering violation and execution restarts from
// the hit load's checkpoint (Section 3).
func (c *Core) ExternalSnoop(addr uint64) {
	c.res.Metrics.Inc(obs.MetricSnoopsExternal)
	c.mem.Snoop(addr)
	if v, found := c.ldbuf.SnoopCheck(addr); found {
		c.res.SnoopViolations++
		c.obsEvent(obs.EvSnoopViolation, addr)
		c.restart(v.Ckpt, c.cfg.MispredictPenalty)
	}
}

func (c *Core) resetStats() {
	c.res = Results{Suite: c.res.Suite, Design: c.res.Design, SRLOccupancy: stats.NewOccupancyTracker()}
	c.res.SRLOccupancy.Set(c.cycle, uint64(c.srlLen()))
	c.statsResetAt = c.cycle
	c.committedAtReset = c.committed
	// Structure activity counters are cumulative; snapshot baselines.
	c.actBase = c.snapshotActivity()
	if c.obsrv != nil {
		c.obsRebaseline()
	}
}

func (c *Core) srlLen() int {
	if c.srl == nil {
		return 0
	}
	return c.srl.Len()
}

// step advances the machine by one cycle.
func (c *Core) step() {
	c.cycle++
	if c.obsrv != nil && c.cycle >= c.obsrv.nextSample {
		c.obsSample()
	}
	if c.outstandingMisses > 0 {
		c.res.Metrics.Inc(obs.MetricCyclesMissOutstanding)
	}
	if c.srl != nil && !c.srl.Empty() {
		c.res.Metrics.Inc(obs.MetricCyclesSRLNonEmpty)
		if c.srl.Head().DataReady {
			c.res.Metrics.Inc(obs.MetricCyclesSRLHeadReady)
		}
	}
	c.processCompletions()
	c.commitCheckpoints()
	c.injectSnoops()
	c.drainStores()
	c.reinsertSlice()
	c.retrySRLStalled()
	c.issue()
	c.allocate()
}

func (c *Core) processCompletions() {
	for c.cmpl.Len() > 0 {
		cyc, _ := c.cmpl.Min()
		if cyc > c.cycle {
			break
		}
		_, ev := c.cmpl.PopMin()
		if ev.d.epoch != ev.epoch {
			continue // squashed
		}
		c.complete(ev.d)
	}
}

func (c *Core) finalize() {
	if c.redoActive {
		// The measured region ended mid-episode; close it so the event
		// trace's start/end pairing holds for consumers.
		c.redoActive = false
		c.obsEvent(obs.EvRedoEnd, 0)
	}
	if c.chk != nil {
		c.chkFinish()
	}
	c.res.Cycles = c.cycle - c.statsResetAt
	c.res.Uops = c.committed - c.committedAtReset
	c.res.SRLOccupancy.Finish(c.cycle)
	c.obsFinalize()
	act := c.snapshotActivity()
	c.res.CamSearches = act.camSearches - c.actBase.camSearches
	c.res.CamEntryOps = act.camEntryOps - c.actBase.camEntryOps
	c.res.LCFProbes = act.lcfProbes - c.actBase.lcfProbes
	c.res.LCFNonZero = act.lcfNonZero - c.actBase.lcfNonZero
	c.res.LCFOverflows = act.lcfOverflows - c.actBase.lcfOverflows
	c.res.FCLookups = act.fcLookups - c.actBase.fcLookups
	c.res.FCHits = act.fcHits - c.actBase.fcHits
	c.res.LBLookups = act.lbLookups - c.actBase.lbLookups
	c.res.LBEntryCmps = act.lbEntryCmps - c.actBase.lbEntryCmps
	c.res.LBOverflows = act.lbOverflows - c.actBase.lbOverflows
	c.res.MTBProbes = act.mtbProbes - c.actBase.mtbProbes
	c.res.MTBMaybes = act.mtbMaybes - c.actBase.mtbMaybes
	c.res.SRLReads = act.srlReads - c.actBase.srlReads
	c.res.SRLWrites = act.srlWrites - c.actBase.srlWrites
	c.res.L1Misses = act.l1Misses - c.actBase.l1Misses
	c.res.L2Misses = act.l2Misses - c.actBase.l2Misses
	c.res.MemAccesses = act.memAccesses - c.actBase.memAccesses
	c.res.Writebacks = act.writebacks - c.actBase.writebacks
	c.res.FarAccesses = act.farAccesses - c.actBase.farAccesses
	c.res.FarDegradedAccesses = act.farDegraded - c.actBase.farDegraded
}

// activity is a snapshot of cumulative structure counters, in two blocks
// the skip engine (skip.go) treats by type. readActivity holds the counters
// that only pure lookups bump — a lookup that changes nothing else — so a
// probe cycle that moved them can still be skipped, and the jump
// extrapolates them. writeActivity holds the counters of operations that
// change structure state, which must not move in a probe cycle. A counter
// added to either block is covered with no edit to skip.go.
type activity struct {
	readActivity
	writeActivity
}

// readActivity is the pure-read block: store-queue searches and the entries
// they compare, LCF probes and the non-zero hits among them, FC lookups, MTB
// probes and maybes, load-buffer lookups and the entries they compare, and
// L1 and L2 misses. A miss changes nothing else only when its access finds
// every MSHR busy; any other miss fills a line, which its caller shows by a
// queue length, or allocates an MSHR, which the write block shows. With the
// prefetcher on, an L1 miss also trains the stream table; the skip engine
// logs those trainings and replays them across a jump.
type readActivity struct {
	camSearches, camEntryOps uint64
	lcfProbes, lcfNonZero    uint64
	fcLookups                uint64
	mtbProbes, mtbMaybes     uint64
	lbLookups, lbEntryCmps   uint64
	l1Misses, l2Misses       uint64
}

// writeActivity is the block a quiescent cycle leaves unchanged: refused
// LCF increments and load-buffer overflows, FC hits, SRL reads (a drain)
// and writes, memory fetches (a demand miss or a prefetch that took an
// MSHR), writebacks, and far-tier fetches.
type writeActivity struct {
	lcfOverflows, lbOverflows uint64
	fcHits                    uint64
	srlReads, srlWrites       uint64
	memAccesses, writebacks   uint64
	farAccesses, farDegraded  uint64
}

// snapshotActivity reads the structure counters, plus the reads the skip
// engine's jumps stand in for (skipState.reads): the sum is what plain
// stepping would have counted.
func (c *Core) snapshotActivity() activity {
	a := activity{readActivity: c.skip.reads}
	a.camSearches += c.l1stq.Searches()
	a.camEntryOps += c.l1stq.CamEntryOps()
	if c.l2stq != nil {
		a.camSearches += c.l2stq.Searches()
		a.camEntryOps += c.l2stq.CamEntryOps()
	}
	if c.lcf != nil {
		a.lcfProbes += c.lcf.Probes()
		a.lcfNonZero += c.lcf.NonZeroHits()
		a.lcfOverflows = c.lcf.Overflows()
	}
	if c.fc != nil {
		a.fcLookups += c.fc.Lookups()
		a.fcHits = c.fc.Hits()
	}
	a.lbLookups += c.ldbuf.Lookups()
	a.lbEntryCmps += c.ldbuf.EntryCompares()
	a.lbOverflows = c.ldbuf.Overflows()
	if c.mtb != nil {
		a.mtbProbes += c.mtb.Probes()
		a.mtbMaybes += c.mtb.Maybes()
	}
	if c.srl != nil {
		a.srlReads = c.srl.Reads()
		a.srlWrites = c.srl.Writes()
	}
	a.l1Misses += c.mem.L1.Misses()
	a.l2Misses += c.mem.L2.Misses()
	a.memAccesses = c.mem.MemAccesses()
	a.writebacks = c.mem.L1.Writebacks() + c.mem.L2.Writebacks()
	a.farAccesses = c.mem.FarAccesses()
	a.farDegraded = c.mem.FarDegradedAccesses()
	return a
}

// debugState renders a diagnostic snapshot for forward-progress failures.
func (c *Core) debugState() string {
	s := fmt.Sprintf("%s/%s cycle=%d committed=%d win=%d replayPos=%d sdb=%d srlStalled=%d ready=%d cmpl=%d ckpts=%d fetchResume=%d\n",
		c.res.Suite, c.res.Design, c.cycle, c.committed, c.win.len(), c.replayPos,
		c.sdb.Len(), len(c.srlStalled), c.ready.Len(), c.cmpl.Len(), len(c.ckpts), c.fetchResume)
	s += fmt.Sprintf("sched(i/f/m)=%d/%d/%d regs(i/f)=%d/%d loadsInWin=%d l1stq=%d srlLen=%d outMiss=%d\n",
		c.schedInt, c.schedFP, c.schedMem, c.regsInt, c.regsFP, c.loadsInWindow, c.l1stq.Len(), c.srlLen(), c.outstandingMisses)
	if len(c.ckpts) > 0 {
		ck := &c.ckpts[0]
		s += fmt.Sprintf("ckpt0: id=%d start=%d pending=%d uops=%d closed=%v\n", ck.id, ck.startSeq, ck.pending, ck.uops, ck.closed)
	}
	if c.srl != nil && !c.srl.Empty() {
		h := c.srl.Head()
		hu := c.uopBySeq(h.Seq)
		s += fmt.Sprintf("srl head: seq=%d idx=%d addrKnown=%v dataReady=%v lcfCnt=%v uop=%v\n",
			h.Seq, h.SRLIndex, h.AddrKnown, h.DataReady, h.LCFCounted, hu != nil)
		if hu != nil {
			s += fmt.Sprintf("  head uop: alloc=%v done=%v pois=%v inSched=%v storeID=%d pendSrc=%d\n",
				hu.allocated, hu.done, hu.poisoned, hu.inSched, hu.storeID, hu.pendingSrc)
		}
		s += fmt.Sprintf("order: allLoadsOlderDone(head)=%v outstanding=%d\n",
			c.order.AllLoadsOlderThanDone(h.Seq), c.order.Len())
	}
	for _, ld := range c.srlStalled {
		s += fmt.Sprintf("  stalled load seq=%d nearest=%d srlHeadIdx=%d\n", ld.u.Seq, ld.nearestStoreID, c.srl.HeadIndex())
		break
	}
	if d := c.sdbHead(); d != nil {
		s += fmt.Sprintf("  sdb[0]: %s\n", d.u.String())
		// Walk the producer chain of the SDB head.
		cur := d
		for hop := 0; hop < 12 && cur != nil; hop++ {
			var next *dynUop
			for j, r := range cur.prod {
				if p := r.live(); p != nil && !p.done && p.allocated {
					s += fmt.Sprintf("   hop%d prod%d: %s done=%v pois=%v inSched=%v pendSrc=%d missRet=%d\n",
						hop, j, p.u.String(), p.done, p.poisoned, p.inSched, p.pendingSrc, p.missReturn)
					next = p
				}
			}
			if p := cur.memDep.live(); next == nil && p != nil && !p.done {
				s += fmt.Sprintf("   hop%d memDep: %s done=%v pois=%v inSched=%v pendSrc=%d missRet=%d\n",
					hop, p.u.String(), p.done, p.poisoned, p.inSched, p.pendingSrc, p.missReturn)
				next = p
			}
			cur = next
		}
	}
	// First few incomplete uops in the window.
	n := 0
	for i := 0; i < c.win.len() && n < 6; i++ {
		d := c.win.at(i)
		if d.done || !d.allocated {
			continue
		}
		s += fmt.Sprintf("  stuck uop %s alloc=%v inSched=%v pois=%v pendSrc=%d missRet=%d\n",
			d.u.String(), d.allocated, d.inSched, d.poisoned, d.pendingSrc, d.missReturn)
		n++
	}
	return s
}
