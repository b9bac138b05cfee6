package cachesim

import (
	"fmt"

	"srlproc/internal/isa"
)

// AccessResult reports the outcome of a hierarchy access.
type AccessResult struct {
	Done     uint64 // cycle the data is available / write completes
	Level    int    // 1 = L1 hit, 2 = L2 hit, 3 = memory
	MSHRFull bool   // true if the access could not start (retry later)
}

// Config sizes the hierarchy; zero values take Table 1 defaults via
// DefaultConfig.
type Config struct {
	L1Size     int
	L1Assoc    int
	L1Latency  uint64
	L2Size     int
	L2Assoc    int
	L2Latency  uint64
	MemLatency uint64 // 100ns at 8GHz = 800 cycles
	MSHRs      int    // outstanding line misses to memory
	PrefetchOn bool
	PrefetchN  int // stream slots
	PrefetchD  int // prefetch depth (lines ahead)

	// Far-memory tier (CXL-like memory expansion). FarFrac of cache lines
	// — selected by a deterministic line-address hash, modelling a static
	// capacity split between local DRAM and the far tier — miss to
	// FarLatency instead of MemLatency. FarDegradeAfter (cycles), when
	// non-zero, models a link fail-over/degradation scenario: far accesses
	// issued at or after that cycle pay FarDegradedLatency instead. All
	// zero = no far tier, bit-identical to the pre-existing hierarchy.
	FarFrac            float64
	FarLatency         uint64
	FarDegradeAfter    uint64
	FarDegradedLatency uint64
}

// Validate checks the MSHR count and the far-memory knobs. With no MSHR no
// miss could ever reach memory, and the core would spin until its
// forward-progress guard gives up.
func (c *Config) Validate() error {
	switch {
	case c.MSHRs < 1:
		return fmt.Errorf("cachesim: MSHRs %d must be at least 1", c.MSHRs)
	case c.FarFrac < 0 || c.FarFrac > 1:
		return fmt.Errorf("cachesim: FarFrac %v out of range [0,1]", c.FarFrac)
	case c.FarFrac > 0 && c.FarLatency == 0:
		return fmt.Errorf("cachesim: FarFrac %v requires FarLatency > 0", c.FarFrac)
	case c.FarDegradeAfter > 0 && c.FarDegradedLatency == 0:
		return fmt.Errorf("cachesim: FarDegradeAfter requires FarDegradedLatency > 0")
	}
	return nil
}

// DefaultConfig returns the Table 1 memory hierarchy.
func DefaultConfig() Config {
	return Config{
		L1Size: 32 * 1024, L1Assoc: 4, L1Latency: 3,
		L2Size: 1024 * 1024, L2Assoc: 8, L2Latency: 8,
		MemLatency: 800,
		MSHRs:      32,
		PrefetchOn: true, PrefetchN: 16, PrefetchD: 12,
	}
}

// Hierarchy is the two-level data cache plus memory, with an MSHR file that
// merges and bounds outstanding memory misses (this is what creates
// memory-level parallelism, the resource the latency tolerant processor
// exploits) and an optional stream prefetcher.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	cfg Config
	pf  *StreamPrefetcher

	// mshrs holds the outstanding misses, at most one per line and at
	// most cfg.MSHRs in all. Every use is order-independent, so entries
	// sit in no particular order.
	mshrs []mshr

	demandMisses   uint64
	memAccesses    uint64
	mshrFullEvents uint64
	farAccesses    uint64
	farDegraded    uint64
}

// mshr is one outstanding line miss: its line address and the cycle its
// fill completes.
type mshr struct{ line, fill uint64 }

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		L1:    NewCache("L1D", cfg.L1Size, cfg.L1Assoc, cfg.L1Latency),
		L2:    NewCache("L2", cfg.L2Size, cfg.L2Assoc, cfg.L2Latency),
		cfg:   cfg,
		mshrs: make([]mshr, 0, cfg.MSHRs),
	}
	if cfg.PrefetchOn {
		h.pf = NewStreamPrefetcher(cfg.PrefetchN, cfg.PrefetchD)
	}
	return h
}

// MemAccesses returns demand fetches that went to memory.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// FarAccesses returns memory fetches (demand or prefetch) served by the
// far-memory tier.
func (h *Hierarchy) FarAccesses() uint64 { return h.farAccesses }

// FarDegradedAccesses returns far-tier fetches that paid the degraded
// (post-fail-over) latency.
func (h *Hierarchy) FarDegradedAccesses() uint64 { return h.farDegraded }

// isFarLine deterministically assigns line addresses to the far tier. A
// multiplicative hash spreads the split across regions so FarFrac of any
// workload's footprint — hot, heap, and stream alike — lands far.
func (h *Hierarchy) isFarLine(la uint64) bool {
	if h.cfg.FarFrac <= 0 {
		return false
	}
	hash := (la / isa.CacheLineSize) * 0x9E3779B97F4A7C15
	return hash>>40 < uint64(h.cfg.FarFrac*float64(uint64(1)<<24))
}

// memLatencyFor returns the memory fetch latency for a line at a cycle,
// routing far-tier lines to the (possibly degraded) far latency.
func (h *Hierarchy) memLatencyFor(cycle, la uint64) uint64 {
	if !h.isFarLine(la) {
		return h.cfg.MemLatency
	}
	h.farAccesses++
	if h.cfg.FarDegradeAfter > 0 && cycle >= h.cfg.FarDegradeAfter {
		h.farDegraded++
		return h.cfg.FarDegradedLatency
	}
	return h.cfg.FarLatency
}

// DemandMisses returns demand (non-prefetch) misses to memory.
func (h *Hierarchy) DemandMisses() uint64 { return h.demandMisses }

// MSHRFullEvents returns how many accesses were rejected for lack of MSHRs.
func (h *Hierarchy) MSHRFullEvents() uint64 { return h.mshrFullEvents }

// PrefetchIssued returns prefetch lines requested.
func (h *Hierarchy) PrefetchIssued() uint64 {
	if h.pf == nil {
		return 0
	}
	return h.pf.Issued()
}

// EarliestPendingFill returns the earliest MSHR fill-completion cycle
// strictly after the given cycle, and whether one exists. It is a pure
// read for the core's cycle-skip event computation: unlike the access
// path it never prunes the MSHR file, so calling it cannot perturb later
// MSHR-occupancy decisions. The answer is conservative — a fill already
// merged into an L1 line resolves through the completion heap instead —
// but every cycle it names is a cycle at which memory state can change.
func (h *Hierarchy) EarliestPendingFill(cycle uint64) (uint64, bool) {
	best := ^uint64(0)
	ok := false
	for _, m := range h.mshrs {
		if m.fill > cycle && m.fill < best {
			best = m.fill
			ok = true
		}
	}
	return best, ok
}

// pruneMSHRs drops the entries whose fill completed by cycle.
func (h *Hierarchy) pruneMSHRs(cycle uint64) {
	kept := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.fill > cycle {
			kept = append(kept, m)
		}
	}
	h.mshrs = kept
}

// pendingFill returns the fill cycle of line la's MSHR entry, completed or
// not, and whether it has one.
func (h *Hierarchy) pendingFill(la uint64) (uint64, bool) {
	for _, m := range h.mshrs {
		if m.line == la {
			return m.fill, true
		}
	}
	return 0, false
}

// Access performs a demand read (write=false) or write (write=true) of addr
// at the given cycle. Writes are write-allocate: a missing line is fetched
// then dirtied. Level reports where the data was found.
func (h *Hierarchy) Access(cycle, addr uint64, write bool) AccessResult {
	la := isa.LineAddr(addr)
	if hit, ready := h.L1.Lookup(cycle, addr); hit {
		if write {
			h.L1.MarkDirty(addr)
		}
		return AccessResult{Done: ready, Level: 1}
	}
	// L1 miss: consult prefetcher on the demand miss stream.
	if h.pf != nil {
		for _, pl := range h.pf.OnMiss(addr, cycle) {
			h.prefetchLine(cycle, pl)
		}
	}
	if hit, ready := h.L2.Lookup(cycle, addr); hit {
		// Fill L1 from L2.
		done := ready + h.cfg.L1Latency
		h.fillL1(la, done, write)
		return AccessResult{Done: done, Level: 2}
	}
	// Memory access, merged through the MSHR file. Prune completed fills
	// first: an entry whose fill cycle has passed no longer occupies an
	// MSHR, and counting it against the cap would reject admissible
	// accesses (spurious MSHRFull retries).
	h.pruneMSHRs(cycle)
	if done, ok := h.pendingFill(la); ok {
		d := done + h.cfg.L1Latency
		h.fillL1(la, d, write)
		return AccessResult{Done: d, Level: 3}
	}
	if len(h.mshrs) >= h.cfg.MSHRs {
		h.mshrFullEvents++
		return AccessResult{MSHRFull: true}
	}
	h.demandMisses++
	h.memAccesses++
	fill := cycle + h.memLatencyFor(cycle, la)
	h.mshrs = append(h.mshrs, mshr{la, fill})
	h.L2.Insert(la, fill, false)
	done := fill + h.cfg.L1Latency
	h.fillL1(la, done, write)
	return AccessResult{Done: done, Level: 3}
}

func (h *Hierarchy) fillL1(la, ready uint64, dirty bool) {
	ev := h.L1.Insert(la, ready, dirty)
	if ev.Valid {
		// Victim path: dirty lines write back; clean victims also refresh
		// the L2 copy (pseudo-inclusive — long-L1-resident lines would
		// otherwise silently LRU out of L2 and re-miss to memory).
		h.L2.Insert(ev.Addr, ready, ev.Dirty)
	}
}

// DiscardSpecInto invalidates speculative L1 lines selected by which
// ("from"/"temp"/"all") and re-registers their pre-store architectural data
// in L2 (the committed copy was written back before the speculative
// overwrite). Returns the number of lines discarded.
func (h *Hierarchy) DiscardSpecInto(cycle uint64, addrs []uint64) int {
	for _, a := range addrs {
		h.L2.Insert(a, cycle, false)
	}
	return len(addrs)
}

func (h *Hierarchy) prefetchLine(cycle, addr uint64) {
	la := isa.LineAddr(addr)
	if h.L2.Contains(la) {
		return
	}
	h.pruneMSHRs(cycle)
	if _, ok := h.pendingFill(la); ok {
		return
	}
	if len(h.mshrs) >= h.cfg.MSHRs {
		return // prefetches never steal the last MSHRs
	}
	h.memAccesses++
	fill := cycle + h.memLatencyFor(cycle, la)
	h.mshrs = append(h.mshrs, mshr{la, fill})
	h.L2.Insert(la, fill, false)
}

// WouldMissToMemory probes (without side effects) whether a read of addr
// at cycle would have to go to DRAM: nothing cached and no miss already in
// flight. An MSHR entry whose fill cycle has passed is a completed miss,
// not an in-flight one — it merely hasn't been garbage-collected yet — so
// it must not suppress the answer (the probe is side-effect-free and
// cannot prune the file itself).
func (h *Hierarchy) WouldMissToMemory(cycle, addr uint64) bool {
	la := isa.LineAddr(addr)
	if h.L1.Contains(la) || h.L2.Contains(la) {
		return false
	}
	done, pending := h.pendingFill(la)
	return !(pending && done > cycle)
}

// ProbeState classifies a line's current residence for diagnostics:
// "l1", "l2", "mshr", or "cold".
func (h *Hierarchy) ProbeState(addr uint64) string {
	la := isa.LineAddr(addr)
	if h.L1.Contains(la) {
		return "l1"
	}
	if h.L2.Contains(la) {
		return "l2"
	}
	if _, ok := h.pendingFill(la); ok {
		return "mshr"
	}
	return "cold"
}

// Snoop invalidates addr's line in both levels (an external store took
// ownership). Returns whether any level held the line.
func (h *Hierarchy) Snoop(addr uint64) bool {
	la := isa.LineAddr(addr)
	p1, _ := h.L1.Invalidate(la)
	p2, _ := h.L2.Invalidate(la)
	return p1 || p2
}
