// Package core implements the latency tolerant processor: a cycle-stepped
// timing model of a Continual Flow Pipeline (CFP) on a Checkpoint Processing
// and Recovery (CPR) microarchitecture, with pluggable secondary store
// processing — the paper's baseline, the large single-level ("ideal") store
// queue, the hierarchical two-level store queue, and the proposed Store Redo
// Log organisation.
package core

import (
	"fmt"
	"strings"

	"srlproc/internal/cachesim"
	"srlproc/internal/lsq"
	"srlproc/internal/obs"
)

// StoreDesign selects the store-processing organisation under evaluation.
type StoreDesign int

const (
	// DesignBaseline is a single conventional store queue (48 entries by
	// default) — the denominator of every speedup in the paper.
	DesignBaseline StoreDesign = iota
	// DesignLargeSTQ is a single-level store queue of configurable size at
	// L1-STQ latency; at 1K entries it is Figure 6's "ideal" store queue,
	// and the Figure 2 sweep uses sizes 128..1K.
	DesignLargeSTQ
	// DesignHierarchical is Akkary et al.'s two-level store queue: a small
	// fast L1 STQ backed by a large, slow, CAM-searched L2 STQ with a
	// Membership Test Buffer filtering lookups.
	DesignHierarchical
	// DesignSRL is the paper's proposal: L1 STQ + Store Redo Log + Loose
	// Check Filter + Forwarding Cache + set-associative secondary load
	// buffer.
	DesignSRL
	// DesignFilteredSTQ is the related-work comparator the paper discusses
	// (Sethumadhavan et al., MICRO 2003): a single large store queue whose
	// CAM searches are screened by a Bloom-style membership filter. It
	// saves search (dynamic) power but — the paper's critique — keeps the
	// full CAM's area and leakage.
	DesignFilteredSTQ
)

// String names the design as in the paper's figures.
func (d StoreDesign) String() string {
	switch d {
	case DesignBaseline:
		return "baseline-48STQ"
	case DesignLargeSTQ:
		return "large-STQ"
	case DesignHierarchical:
		return "hierarchical-STQ"
	case DesignSRL:
		return "SRL"
	case DesignFilteredSTQ:
		return "filtered-STQ"
	default:
		return fmt.Sprintf("design(%d)", int(d))
	}
}

// MarshalText renders the design by name, so StoreDesign-keyed maps and
// fields marshal to readable JSON instead of integers.
func (d StoreDesign) MarshalText() ([]byte, error) {
	return []byte(d.String()), nil
}

// allDesigns lists every store design in declaration order.
var allDesigns = [...]StoreDesign{DesignBaseline, DesignLargeSTQ, DesignHierarchical, DesignSRL, DesignFilteredSTQ}

// UnmarshalText parses a design name as produced by String/MarshalText.
func (d *StoreDesign) UnmarshalText(text []byte) error {
	name := string(text)
	for _, dd := range allDesigns {
		if dd.String() == name {
			*d = dd
			return nil
		}
	}
	return fmt.Errorf("core: unknown store design %q", name)
}

// ParseDesign resolves a design name the way every front end (srlsim,
// traceconv, /v1) accepts it: a String name or one of the short
// spellings, ignoring case.
func ParseDesign(name string) (StoreDesign, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return DesignBaseline, nil
	case "large", "ideal", "largestq":
		return DesignLargeSTQ, nil
	case "hier", "hierarchical":
		return DesignHierarchical, nil
	case "filtered":
		return DesignFilteredSTQ, nil
	}
	for _, d := range allDesigns {
		if strings.EqualFold(d.String(), name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown store design %q", name)
}

// Config parameterises one simulation. DefaultConfig reproduces Table 1.
type Config struct {
	Design StoreDesign

	// Pipeline widths (Table 1: rename/issue/retire = 4/6/4). CPR commits
	// a whole checkpoint at once, so no retire width is modelled.
	AllocWidth int
	IssueWidth int
	LoadPorts  int
	StorePorts int

	// Scheduling windows (Table 1: 64 Int, 64 FP, 32 Mem).
	SchedInt int
	SchedFP  int
	SchedMem int

	// Physical registers (Table 1: 192 int, 192 fp).
	IntRegs int
	FPRegs  int

	// Checkpoints (Table 1: 8 map table checkpoints).
	Checkpoints  int
	CkptInterval int // max micro-ops per checkpoint

	// Branch handling.
	MispredictPenalty uint64 // minimum redirect penalty (Table 1: 20)

	// Primary load/store queues.
	L1STQSize    int
	L1STQLatency uint64
	LQSize       int // load buffer capacity (Table 1: 1K)

	// Single-level STQ size for DesignBaseline/DesignLargeSTQ.
	STQSize int

	// Hierarchical design.
	L2STQSize    int
	L2STQLatency uint64
	MTBSize      int

	// SRL design.
	SRLSize        int
	UseLCF         bool
	LCFSize        int
	LCFHash        lsq.HashKind
	LCFCounterBits uint
	UseIndexedFwd  bool
	UseFC          bool // false = use the data cache for temporary updates (§6.5)
	FCSize         int
	FCAssoc        int
	LoadBufAssoc   int // secondary load buffer associativity
	LoadBufPolicy  lsq.OverflowPolicy
	LoadBufVictim  int
	UseWARTracker  bool // delay SRL head until prior loads execute (§4.3)

	// Memory hierarchy.
	Mem cachesim.Config

	// Memory dependence predictor SSIT size.
	StoreSetsSize int

	// Total in-flight window bound (ring capacity). The slice data buffer
	// (CFP) holds any poisoned uop in it, so it has no size of its own.
	WindowCap int

	// Workload control.
	Seed       uint64
	WarmupUops uint64 // committed uops before stats reset
	RunUops    uint64 // committed uops measured after warmup

	// External snoop injection (multiprocessor ordering traffic);
	// rate comes from the workload profile unless disabled here.
	SnoopsEnabled bool

	// Memory-ordering workload knobs, mirrored into the trace profile
	// (trace.Profile.FencePer1K/AcquireFrac/ReleaseFrac). All zero by
	// default: the generator then emits no ordering ops and replays the
	// exact pre-existing streams. FencePer1K full fences per 1000 uops;
	// AcquireFrac of load sites become load-acquires; ReleaseFrac of store
	// sites become store-releases. The core enforces release consistency
	// by asking the §4.3 write-after-read bit ring (DESIGN.md §12).
	FencePer1K  int
	AcquireFrac float64
	ReleaseFrac float64

	// FaultDropSyncGate disables the ordering gates in the store drain
	// path (release stores drain without waiting for older loads; drains
	// ignore pending fences/acquires), so the extended oracle can prove it
	// catches ordering violations. Never set in real experiments.
	FaultDropSyncGate bool

	// EventSkip lets the cycle loop fast-forward quiescent gaps: when a
	// probe cycle proves no uop can make progress, the core jumps straight
	// to the next interesting cycle (completion-heap head, MSHR fill
	// return, SDB drain wake-up, front-end resume, temporary-update
	// retry, or timeline sample), accumulating the skipped width into
	// every cycle-denominated statistic. The jump is bit-for-bit
	// identical to stepping by construction (see internal/core/skip.go
	// and DESIGN.md §11), so EventSkip is excluded from Fingerprint:
	// skipped and stepped runs share memoized results. Default on; it is
	// the only switch: `srlsim -noskip` turns it off for one point, and
	// the skip-identity tests and srlbench's step-mode leg clear it to
	// get the stepped reference.
	EventSkip bool

	// Check runs the differential oracle (internal/oracle) in lockstep
	// with the pipeline: a fully searched program-ordered reference memory
	// system cross-checks every load's forwarding decision, every redo
	// drain, every checkpoint commit and the end-of-run image, plus
	// structure invariants (LCF coverage, SRL FIFO order, load-buffer
	// monotonicity, WAR gating). Divergences land in Results.Divergences;
	// they never abort the run. Checking observes, it never perturbs:
	// a checked run's timing results are bit-identical to an unchecked one.
	Check bool

	// FaultInvertFwdAge injects a deliberate forwarding-age bug (the
	// Forwarding Cache's storeSeq < loadSeq eligibility comparison is
	// inverted) so the checker and fuzzer can prove they catch it.
	// Never set in real experiments.
	FaultInvertFwdAge bool

	// Obs enables run observability: the cycle-window time-series sampler
	// and the typed event trace (see internal/obs). The zero value
	// disables both; a disabled run pays one pointer comparison per cycle
	// and allocates nothing. Obs is part of the config fingerprint, so
	// observed and unobserved runs memoize separately.
	Obs obs.Config
}

// DefaultConfig returns the Table 1 baseline machine with the given store
// design selected and paper-default secondary structures (48-entry L1 STQ,
// 1K SRL, 2K-entry 3-PAX LCF, 256-entry 4-way FC, 1K-entry 8-cycle L2 STQ,
// 1K-entry load buffer).
func DefaultConfig(d StoreDesign) Config {
	return Config{
		Design:     d,
		AllocWidth: 4,
		IssueWidth: 6,
		LoadPorts:  1,
		StorePorts: 1,

		SchedInt: 64,
		SchedFP:  64,
		SchedMem: 32,

		IntRegs: 192,
		FPRegs:  192,

		Checkpoints:  8,
		CkptInterval: 448,

		MispredictPenalty: 20,

		L1STQSize:    48,
		L1STQLatency: 3,
		LQSize:       1024,

		STQSize: 48,

		L2STQSize:    1024,
		L2STQLatency: 8,
		MTBSize:      1024,

		SRLSize:        1024,
		UseLCF:         true,
		LCFSize:        2048,
		LCFHash:        lsq.Hash3PAX,
		LCFCounterBits: 6,
		UseIndexedFwd:  true,
		UseFC:          true,
		FCSize:         256,
		FCAssoc:        4,
		LoadBufAssoc:   8,
		LoadBufPolicy:  lsq.OverflowVictim,
		LoadBufVictim:  16,
		UseWARTracker:  true,

		Mem: cachesim.DefaultConfig(),

		StoreSetsSize: 4096,

		WindowCap: 8192,

		Seed:       1,
		WarmupUops: 50_000,
		RunUops:    250_000,

		SnoopsEnabled: true,
		EventSkip:     true,
	}
}

// The largest sizes Validate accepts. Every queue, table and filter, the
// window and the checkpoint file are allocated whole when a core is built,
// so an unbounded size (a /v1/simulate body's stq_size, say) could ask for
// more memory than the host can map: a fatal runtime error that no panic
// recovery catches. Each bound is 8 to 32 times the paper's: its largest
// queue has 1K entries, Table 1's window 8192 uops and CPR 8 checkpoints;
// the MTB has 1K counters, the LCF 2K, the store-set table 4K entries, the
// FC 256 entries and the load buffer's victim buffer 16.
const (
	maxQueueEntries  = 16384   // STQSize, L1STQSize, L2STQSize, SRLSize, LQSize
	maxWindowCap     = 1 << 16 // uops
	maxCheckpoints   = 64
	maxTableEntries  = 1 << 15 // MTBSize, LCFSize, StoreSetsSize
	maxFCEntries     = 4096    // FCSize
	maxVictimEntries = 256     // LoadBufVictim
)

// Validate checks internal consistency and returns a descriptive error.
// It rejects every geometry the structure constructors would panic on,
// the pipeline could never run or the host could not allocate, and every
// latency above cachesim.MaxLatency, checking only the fields the design
// uses.
func (c *Config) Validate() error {
	switch {
	case c.AllocWidth <= 0 || c.IssueWidth <= 0:
		return fmt.Errorf("core: widths must be positive")
	case c.LoadPorts <= 0 || c.StorePorts <= 0:
		return fmt.Errorf("core: load and store ports must be positive")
	case c.SchedInt <= sliceReserve || c.SchedFP <= sliceReserve || c.SchedMem <= sliceReserve:
		return fmt.Errorf("core: scheduler windows %d/%d/%d must exceed the slice reserve of %d",
			c.SchedInt, c.SchedFP, c.SchedMem, sliceReserve)
	case c.IntRegs <= sliceReserve || c.FPRegs <= sliceReserve:
		return fmt.Errorf("core: register files %d/%d must exceed the slice reserve of %d",
			c.IntRegs, c.FPRegs, sliceReserve)
	case !isPow2(c.StoreSetsSize) || c.StoreSetsSize > maxTableEntries:
		return fmt.Errorf("core: store sets size %d must be a power of two in [1,%d]", c.StoreSetsSize, maxTableEntries)
	case c.LQSize <= 0 || c.LQSize > maxQueueEntries:
		return fmt.Errorf("core: load buffer size %d out of range [1,%d]", c.LQSize, maxQueueEntries)
	case c.Checkpoints < 2 || c.Checkpoints > maxCheckpoints:
		return fmt.Errorf("core: %d checkpoints out of range [2,%d]", c.Checkpoints, maxCheckpoints)
	case c.CkptInterval <= 0:
		return fmt.Errorf("core: checkpoint interval must be positive")
	case c.WindowCap < c.CkptInterval*2:
		return fmt.Errorf("core: window cap %d too small for checkpoint interval %d", c.WindowCap, c.CkptInterval)
	case c.WindowCap > maxWindowCap:
		return fmt.Errorf("core: window cap %d exceeds %d", c.WindowCap, maxWindowCap)
	case c.RunUops == 0:
		return fmt.Errorf("core: RunUops must be positive")
	case c.FencePer1K < 0 || c.FencePer1K > 1000:
		return fmt.Errorf("core: FencePer1K %d out of range [0,1000]", c.FencePer1K)
	case !(c.AcquireFrac >= 0 && c.AcquireFrac <= 1): // NaN fails both
		return fmt.Errorf("core: AcquireFrac %v out of range [0,1]", c.AcquireFrac)
	case !(c.ReleaseFrac >= 0 && c.ReleaseFrac <= 1):
		return fmt.Errorf("core: ReleaseFrac %v out of range [0,1]", c.ReleaseFrac)
	case c.L1STQLatency > cachesim.MaxLatency:
		return fmt.Errorf("core: L1 STQ latency %d exceeds %d cycles", c.L1STQLatency, cachesim.MaxLatency)
	case c.MispredictPenalty > cachesim.MaxLatency:
		return fmt.Errorf("core: mispredict penalty %d exceeds %d cycles", c.MispredictPenalty, cachesim.MaxLatency)
	case c.Mem.L1Latency > poisonThreshold:
		// Every L1 hit would count as a long-latency miss and drain to the
		// slice data buffer; the SRL design then restarts on memory
		// dependence violations without ever committing.
		return fmt.Errorf("core: L1 latency %d exceeds the %d-cycle long-latency miss threshold", c.Mem.L1Latency, poisonThreshold)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	switch c.Design {
	case DesignBaseline, DesignLargeSTQ, DesignFilteredSTQ:
		if c.STQSize <= 0 || c.STQSize > maxQueueEntries {
			return fmt.Errorf("core: STQ size %d out of range [1,%d]", c.STQSize, maxQueueEntries)
		}
	case DesignHierarchical, DesignSRL:
		if c.L1STQSize <= 0 || c.L1STQSize > maxQueueEntries {
			return fmt.Errorf("core: L1 STQ size %d out of range [1,%d]", c.L1STQSize, maxQueueEntries)
		}
		if c.L2STQLatency > cachesim.MaxLatency {
			return fmt.Errorf("core: L2 STQ latency %d exceeds %d cycles", c.L2STQLatency, cachesim.MaxLatency)
		}
	}
	switch c.Design {
	case DesignHierarchical, DesignFilteredSTQ:
		if !isPow2(c.MTBSize) || c.MTBSize > maxTableEntries {
			return fmt.Errorf("core: MTB size %d must be a power of two in [1,%d]", c.MTBSize, maxTableEntries)
		}
	}
	switch c.Design {
	case DesignHierarchical:
		if c.L2STQSize < 0 || c.L2STQSize > maxQueueEntries {
			return fmt.Errorf("core: L2 STQ size %d out of range [0,%d]", c.L2STQSize, maxQueueEntries)
		}
	case DesignSRL:
		switch {
		case c.SRLSize <= 0 || c.SRLSize > maxQueueEntries:
			return fmt.Errorf("core: SRL size %d out of range [1,%d]", c.SRLSize, maxQueueEntries)
		case c.UseLCF && (!isPow2(c.LCFSize) || c.LCFSize > maxTableEntries):
			return fmt.Errorf("core: LCF size %d must be a power of two in [1,%d]", c.LCFSize, maxTableEntries)
		case c.UseLCF && (c.LCFCounterBits < 1 || c.LCFCounterBits > 8):
			return fmt.Errorf("core: LCF counter width %d out of range [1,8]", c.LCFCounterBits)
		case c.UseIndexedFwd && !c.UseLCF:
			return fmt.Errorf("core: indexed forwarding requires the LCF")
		case c.UseFC && (c.FCSize <= 0 || c.FCSize > maxFCEntries):
			return fmt.Errorf("core: FC size %d out of range [1,%d]", c.FCSize, maxFCEntries)
		case c.UseFC && (c.FCAssoc <= 0 || !isPow2(c.FCSize/c.FCAssoc)):
			return fmt.Errorf("core: FC of %d entries, %d-way needs a power-of-two set count", c.FCSize, c.FCAssoc)
		case c.LoadBufAssoc <= 0 || !isPow2(c.LQSize/min(c.LoadBufAssoc, c.LQSize)):
			return fmt.Errorf("core: load buffer of %d entries, %d-way needs a power-of-two set count", c.LQSize, c.LoadBufAssoc)
		case c.LoadBufVictim < 0 || c.LoadBufVictim > maxVictimEntries:
			return fmt.Errorf("core: load buffer victim size %d out of range [0,%d]", c.LoadBufVictim, maxVictimEntries)
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
