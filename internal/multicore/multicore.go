// Package multicore runs several latency tolerant cores in cycle lockstep
// with real coherence traffic between them, exercising the paper's
// multiprocessor memory ordering machinery (Section 3) with genuine
// cross-processor stores instead of the single-core simulator's synthetic
// snoop injection.
//
// Each core runs its own copy of a workload suite in a private address
// space, except for a shared hot segment that all cores read and write
// (configurable sharing fraction). Every globally visible store a core
// performs — a committed store queue drain or an SRL redo update — is
// broadcast on a model bus and delivered to every other core's coherence
// port after a fixed bus latency. A snoop that hits a core's (secondary)
// load buffer is a consistency violation and restarts that core from the
// hit load's checkpoint, exactly the recovery path the paper describes.
package multicore

import (
	"context"
	"fmt"

	"srlproc/internal/core"
	"srlproc/internal/stats"
	"srlproc/internal/trace"
)

// Config parameterises a multicore system.
type Config struct {
	Cores int
	// Core is the per-core machine configuration (the store design under
	// test). Seed and the synthetic snoop injector are overridden per core.
	Core core.Config
	// Suite selects the workload each core runs (its own copy, private
	// address space plus the shared segment).
	Suite trace.Suite
	// SharedHotFrac is the fraction of hot-region accesses that target the
	// globally shared segment (0 = no sharing, no coherence traffic).
	SharedHotFrac float64
	// BusLatency is the snoop delivery delay in cycles.
	BusLatency uint64
}

// DefaultConfig returns a 4-core system with moderate sharing.
func DefaultConfig(d core.StoreDesign, suite trace.Suite) Config {
	cc := core.DefaultConfig(d)
	cc.WarmupUops = 20_000
	cc.RunUops = 80_000
	return Config{
		Cores:         4,
		Core:          cc,
		Suite:         suite,
		SharedHotFrac: 0.10,
		BusLatency:    32,
	}
}

// Results aggregates a multicore run.
type Results struct {
	PerCore []*core.Results
	// SnoopsDelivered counts cross-core snoop deliveries (each store is
	// delivered to every other core).
	SnoopsDelivered uint64
	// SnoopsDropped counts deliveries elided because the target core had
	// already finished its measured region. A Done core's pipeline is
	// drained and its load buffer empty, so the snoop could not change
	// anything — but the count makes the elision visible instead of
	// silently folding it into SnoopsDelivered.
	SnoopsDropped uint64
	// Cycles is the lockstep cycle count until the last core finished.
	Cycles uint64
}

// TotalSnoopViolations sums consistency violations across cores.
func (r *Results) TotalSnoopViolations() uint64 {
	var n uint64
	for _, c := range r.PerCore {
		n += c.SnoopViolations
	}
	return n
}

// AggregateIPC returns total committed micro-ops per lockstep cycle.
func (r *Results) AggregateIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var uops uint64
	for _, c := range r.PerCore {
		uops += c.Uops
	}
	return float64(uops) / float64(r.Cycles)
}

// String renders a summary table.
func (r *Results) String() string {
	t := stats.NewTable("Multicore run", "Core", "IPC", "SnoopViol", "Restarts", "MemDepViol")
	for i, c := range r.PerCore {
		t.AddRowf(fmt.Sprintf("%d", i), c.IPC(), fmt.Sprintf("%d", c.SnoopViolations),
			fmt.Sprintf("%d", c.Restarts), fmt.Sprintf("%d", c.MemDepViolations))
	}
	return t.String() +
		fmt.Sprintf("aggregate IPC %.2f, snoops delivered %d (dropped %d), consistency violations %d\n",
			r.AggregateIPC(), r.SnoopsDelivered, r.SnoopsDropped, r.TotalSnoopViolations())
}

// pendingSnoop is an in-flight bus transaction.
type pendingSnoop struct {
	deliverAt uint64
	from      int
	addr      uint64
}

// System is a lockstep multicore simulation.
type System struct {
	cfg     Config
	cores   []*core.Core
	bus     []pendingSnoop
	cycle   uint64
	sent    uint64
	dropped uint64
}

// New builds the system.
func New(cfg Config) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("multicore: need at least one core")
	}
	s := &System{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		prof := core.ProfileFor(cfg.Core, cfg.Suite)
		prof.CoreID = i
		prof.SharedHotFrac = cfg.SharedHotFrac
		prof.SnoopPer1KCycles = 0 // real traffic replaces the synthetic injector

		cc := cfg.Core
		cc.Seed = cfg.Core.Seed + uint64(i)*7919
		cc.SnoopsEnabled = false
		src := trace.NewGenerator(prof, cc.Seed)
		c, err := core.NewFromSource(cc, src, prof)
		if err != nil {
			return nil, err
		}
		id := i
		c.SetSnoopSink(func(addr uint64) { s.broadcast(id, addr) })
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// broadcast queues a store's line address for delivery to every other core.
// A store performed in lockstep cycle N is snooped no earlier than cycle
// N+1 even at BusLatency 0 — delivery runs after every core has stepped, so
// a same-cycle snoop is impossible by construction. Normalising the latency
// here pins that edge explicitly instead of leaving BusLatency 0 and 1 to
// coincide by arithmetic accident (see TestBusDeliveryTiming).
func (s *System) broadcast(from int, addr uint64) {
	if s.cfg.Cores == 1 {
		return
	}
	lat := s.cfg.BusLatency
	if lat == 0 {
		lat = 1
	}
	s.bus = append(s.bus, pendingSnoop{deliverAt: s.cycle + lat, from: from, addr: addr})
}

// deliver dispatches due bus transactions.
func (s *System) deliver() {
	out := s.bus[:0]
	for _, p := range s.bus {
		if p.deliverAt > s.cycle {
			out = append(out, p)
			continue
		}
		for i, c := range s.cores {
			if i == p.from {
				continue
			}
			if c.Done() {
				s.dropped++
				continue
			}
			c.ExternalSnoop(p.addr)
			s.sent++
		}
	}
	s.bus = out
}

// ctxPollMask sets how often RunContext polls its context: every
// ctxPollMask+1 lockstep cycles, mirroring the single-core RunContext
// cadence so cancellation latency stays in the microseconds while the
// check stays off the per-cycle hot path.
const ctxPollMask = 0x1fff

// Run advances all cores in lockstep until each has completed its measured
// region, then returns the aggregated results.
func (s *System) Run() (*Results, error) {
	return s.RunContext(context.Background())
}

// RunContext simulates like Run but with cooperative cancellation: the
// context is polled every few thousand lockstep cycles and, once it is
// done, the run stops and ctx.Err() is returned (wrapped). The system is
// left mid-flight and must not be reused after a cancelled run.
func (s *System) RunContext(ctx context.Context) (*Results, error) {
	guard := uint64(0)
	limit := 400*(s.cfg.Core.WarmupUops+s.cfg.Core.RunUops) + 10_000_000
	for {
		if guard&ctxPollMask == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("multicore: run aborted at cycle %d: %w", s.cycle, ctx.Err())
		}
		done := true
		for _, c := range s.cores {
			if !c.Done() {
				done = false
				c.StepCycle()
			}
		}
		if done {
			break
		}
		s.cycle++
		s.deliver()
		guard++
		if guard > limit {
			return nil, fmt.Errorf("multicore: no forward progress at cycle %d", s.cycle)
		}
	}
	res := &Results{Cycles: s.cycle, SnoopsDelivered: s.sent, SnoopsDropped: s.dropped}
	for _, c := range s.cores {
		res.PerCore = append(res.PerCore, c.Finalize())
	}
	return res, nil
}
