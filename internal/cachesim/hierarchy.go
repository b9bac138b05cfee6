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

// The largest sizes Validate accepts. Both caches, the MSHR file and the
// prefetcher's stream table and prefetch buffer are allocated whole when a
// hierarchy is built, so an unbounded size could ask for more memory than
// the host can map. Each bound is 16 to 64 times Table 1's: a 1 MB L2, 32
// MSHRs, 16 streams and a depth of 12 lines.
//
// MaxLatency bounds every latency, in cycles. A latency is added to the
// current cycle, so a value near 2^64 wraps and a fill completes before it
// began, as if memory were free; at 2^62 a miss never returns within the
// core's forward-progress guard. The bound is over 100 times the largest
// latency any experiment uses, 8000-cycle memory.
const (
	MaxCacheBytes      = 64 << 20 // L1Size, L2Size
	MaxMSHRs           = 1024
	MaxPrefetchStreams = 256     // PrefetchN
	MaxPrefetchDepth   = 256     // PrefetchD, lines
	MaxLatency         = 1 << 20 // L1, L2, memory, far and degraded-far latencies
)

// Validate checks the cache geometries, the MSHR count, the prefetcher,
// the latencies and the far-memory knobs. It rejects every cache NewCache
// would panic on and every size or latency above its bound. With no MSHR no
// miss could ever reach memory, and the core would spin until its
// forward-progress guard gives up.
func (c *Config) Validate() error {
	if err := validateCache("L1", c.L1Size, c.L1Assoc); err != nil {
		return err
	}
	if err := validateCache("L2", c.L2Size, c.L2Assoc); err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		v    uint64
	}{
		{"L1", c.L1Latency}, {"L2", c.L2Latency}, {"memory", c.MemLatency},
		{"far", c.FarLatency}, {"degraded far", c.FarDegradedLatency},
	} {
		if l.v > MaxLatency {
			return fmt.Errorf("cachesim: %s latency %d exceeds %d cycles", l.name, l.v, MaxLatency)
		}
	}
	switch {
	case c.MSHRs < 1 || c.MSHRs > MaxMSHRs:
		return fmt.Errorf("cachesim: MSHRs %d out of range [1,%d]", c.MSHRs, MaxMSHRs)
	case c.PrefetchOn && (c.PrefetchN < 1 || c.PrefetchN > MaxPrefetchStreams):
		return fmt.Errorf("cachesim: %d prefetch streams out of range [1,%d]", c.PrefetchN, MaxPrefetchStreams)
	case c.PrefetchOn && (c.PrefetchD < 0 || c.PrefetchD > MaxPrefetchDepth):
		return fmt.Errorf("cachesim: prefetch depth %d out of range [0,%d]", c.PrefetchD, MaxPrefetchDepth)
	case !(c.FarFrac >= 0 && c.FarFrac <= 1): // NaN fails both
		return fmt.Errorf("cachesim: FarFrac %v out of range [0,1]", c.FarFrac)
	case c.FarFrac > 0 && c.FarLatency == 0:
		return fmt.Errorf("cachesim: FarFrac %v requires FarLatency > 0", c.FarFrac)
	case c.FarDegradeAfter > 0 && c.FarDegradedLatency == 0:
		return fmt.Errorf("cachesim: FarDegradeAfter requires FarDegradedLatency > 0")
	}
	return nil
}

// validateCache accepts the geometries NewCache builds: at least one way,
// no more ways than lines, a positive power-of-two set count, and at most
// MaxCacheBytes.
func validateCache(name string, size, assoc int) error {
	switch {
	case size <= 0 || size > MaxCacheBytes:
		return fmt.Errorf("cachesim: %s size %d out of range [1,%d]", name, size, MaxCacheBytes)
	case assoc <= 0 || assoc > size/isa.CacheLineSize:
		return fmt.Errorf("cachesim: %s associativity %d out of range [1,%d]", name, assoc, size/isa.CacheLineSize)
	}
	if sets := size / (assoc * isa.CacheLineSize); sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: %s of %d bytes, %d-way has %d sets, not a power of two", name, size, assoc, sets)
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

	memAccesses uint64
	farAccesses uint64
	farDegraded uint64
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
	// The L1 is the one cache the core writes speculatively; its owner
	// table is built here so that a run allocates nothing for it.
	h.L1.trackSpec()
	if cfg.PrefetchOn {
		h.pf = NewStreamPrefetcher(cfg.PrefetchN, cfg.PrefetchD)
	}
	return h
}

// MemAccesses returns the line fetches, demand and prefetch, that went to
// memory.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// RecordTrainings starts a fresh log of the demand misses the stream
// prefetcher trains on, and StopTrainings ends it (both do nothing with the
// prefetcher off). Each training rewrites a stream slot, a change no other
// counter or length shows; ReplayTrainings repeats the log.
func (h *Hierarchy) RecordTrainings() {
	if h.pf != nil {
		h.pf.log, h.pf.recording = h.pf.log[:0], true
	}
}

// StopTrainings stops the logging RecordTrainings started; ReplayTrainings
// still repeats the log.
func (h *Hierarchy) StopTrainings() {
	if h.pf != nil {
		h.pf.recording = false
	}
}

// ReplayTrainings repeats the logged trainings once per cycle for the n
// cycles from first, as if each of those cycles had made the logged misses
// again. Only the stream table moves: the prefetches the trainings ask for
// are dropped. That is exact when every logged miss found the MSHR file
// full and no fill lands before first+n, because such a prefetch then
// returns without a change.
func (h *Hierarchy) ReplayTrainings(first, n uint64) {
	if h.pf != nil {
		h.pf.replay(first, n)
	}
}

// StreamTable returns a copy of the stream prefetcher's slots (nil with the
// prefetcher off), for tests that compare two hierarchies' prefetchers.
func (h *Hierarchy) StreamTable() []Stream {
	if h.pf == nil {
		return nil
	}
	return append([]Stream(nil), h.pf.streams...)
}

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
	if hit, ready := h.L1.Lookup(cycle, addr, write); hit {
		return AccessResult{Done: ready, Level: 1}
	}
	// L1 miss: consult prefetcher on the demand miss stream.
	if h.pf != nil {
		for _, pl := range h.pf.OnMiss(addr, cycle) {
			h.prefetchLine(cycle, pl)
		}
	}
	if hit, ready := h.L2.Lookup(cycle, addr, false); hit {
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
		return AccessResult{MSHRFull: true}
	}
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

// DiscardSpecFrom invalidates the L1's speculative lines owned by
// checkpoint ids >= minCkpt (a restart squashing those checkpoints) and
// re-registers each line's pre-store architectural data in L2 (the
// committed copy was written back before the speculative overwrite).
// Returns the number of lines discarded.
func (h *Hierarchy) DiscardSpecFrom(cycle uint64, minCkpt int) int {
	return h.L1.DiscardSpecFrom(minCkpt, func(a uint64) { h.L2.Insert(a, cycle, false) })
}

// DiscardSpecTemp does what DiscardSpecFrom does for the L1's temporary
// (pre-redo) speculative lines: the §6.5 variant's discard at a redo.
func (h *Hierarchy) DiscardSpecTemp(cycle uint64) int {
	return h.L1.DiscardSpecTemp(func(a uint64) { h.L2.Insert(a, cycle, false) })
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

// Snoop invalidates addr's line in both levels (an external store took
// ownership). Returns whether any level held the line.
func (h *Hierarchy) Snoop(addr uint64) bool {
	la := isa.LineAddr(addr)
	p1, _ := h.L1.Invalidate(la)
	p2, _ := h.L2.Invalidate(la)
	return p1 || p2
}
