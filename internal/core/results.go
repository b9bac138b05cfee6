package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"srlproc/internal/isa"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
	"srlproc/internal/stats"
	"srlproc/internal/trace"
)

// Results holds everything one simulation run reports. The cycle loop
// counts straight into the core's copy; finalize fills in only the totals
// and the structure-activity deltas. Its counters sit in three embedded
// blocks that the event-skip engine (skip.go) compares or extrapolates
// whole, so a counter added to a block is covered with no edit there.
// Embedding keeps every field's JSON key, key order and promoted access.
// No block may implement json.Marshaler or encoding.TextMarshaler:
// MarshalJSON's raw copy would inherit it.
type Results struct {
	Suite  trace.Suite `json:"suite"`
	Design StoreDesign `json:"design"`

	EventCounts
	StallCounts

	// SRL occupancy (Figure 7 / Table 3 col 6).
	SRLOccupancy *stats.OccupancyTracker `json:"srlOccupancy,omitempty"`

	ActivityCounts

	// Metrics holds the typed hot-path counters (see obs.Metric). Access
	// individual values through Metric.
	Metrics obs.MetricSet `json:"metrics"`

	// Timeline is the cycle-window time-series, non-nil only when the run
	// was configured with Config.Obs.SampleEvery > 0.
	Timeline *obs.Timeline `json:"timeline,omitempty"`

	// Trace is the typed event trace, non-nil only when the run was
	// configured with Config.Obs.TraceEvents. Its JSON form is a summary;
	// export the full stream with Trace.WriteJSONL or Trace.WriteChromeTrace.
	Trace *obs.TraceWriter `json:"trace,omitempty"`

	// PoisonedSrcDrains counts, per class, the uops whose first drain to
	// the slice data buffer had neither cause the typed metrics count
	// (sdb_cause_miss_root, sdb_cause_memdep): a source operand was
	// poisoned. Extra and ExtraNames read it by name.
	PoisonedSrcDrains PoisonedSrcCounts `json:"extras"`

	// Divergences holds the differential oracle's findings (Config.Check):
	// the first oracle.DefaultMaxDivergences disagreements in detection
	// order, each with recent-event context. DivergenceCount keeps counting
	// past the retention cap. Both are zero on a clean (or unchecked) run.
	Divergences     []oracle.Divergence `json:"divergences,omitempty"`
	DivergenceCount uint64              `json:"divergenceCount,omitempty"`

	// stqFloor is the smallest Config.STQSize whose run this run also is
	// (Answers): one above the high-water mark of a store queue sized by
	// STQSize that never filled. It is zero when the queue filled, for the
	// designs that size no queue by STQSize, and in a document decoded
	// from JSON, which carries no unexported field.
	stqFloor int
}

// Answers reports whether r is also the result of cfg, a point that
// differs from r's own only in STQSize (the two share an STQFamily key).
// It is when cfg is valid and its store queue is larger than the most
// entries r's queue ever held. STQSize reaches a run only through the
// queue's Full test at allocation, which then never holds; the size also
// sets the ring's length and the word filter's bucket count, which move
// where entries sit and which searches walk the ring, but never a
// search's answer or the CAM counters. The rule is exact, and the
// occupancy is the whole run's, warm-up included: a run whose
// measured-region StallSTQ is zero may still have filled its queue while
// warming up.
func (r *Results) Answers(cfg Config) bool {
	if cfg.Validate() != nil {
		return false
	}
	return r.stqFloor > 0 && cfg.STQSize >= r.stqFloor
}

// EventCounts are the run's event counters. The cycle loop bumps them only
// on real events — a commit, a forward, a violation — and finalize fills
// in the cycle, uop and memory-system totals, so a quiescent cycle leaves
// the block unchanged.
type EventCounts struct {
	Cycles uint64 `json:"cycles"`
	Uops   uint64 `json:"uops"` // committed micro-ops in the measured region
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`

	// Fences counts committed full fences. Zero (and omitted from JSON)
	// unless the trace profile injects sync traffic (Config.FencePer1K),
	// so documents from fence-free runs are unchanged.
	Fences uint64 `json:"fences,omitempty"`

	// CFP / slice statistics (Table 3 inputs).
	MissDependentUops   uint64 `json:"missDependentUops"` // uops that drained to the SDB at least once
	MissDependentStores uint64 `json:"missDependentStores"`
	RedoneStores        uint64 `json:"redoneStores"`  // stores drained from the SRL
	SRLLoadStalls       uint64 `json:"srlLoadStalls"` // loads stalled on a possible SRL match
	IndexedForwards     uint64 `json:"indexedForwards"`

	// Forwarding sources.
	L1STQForwards uint64 `json:"l1stqForwards"`
	L2STQForwards uint64 `json:"l2stqForwards"`
	FCForwards    uint64 `json:"fcForwards"`

	// Violations and restarts.
	MemDepViolations   uint64 `json:"memDepViolations"`
	SnoopViolations    uint64 `json:"snoopViolations"`
	OverflowViolations uint64 `json:"overflowViolations"`
	BranchMispredicts  uint64 `json:"branchMispredicts"`
	Restarts           uint64 `json:"restarts"`
	ReplayedUops       uint64 `json:"replayedUops"`

	// Memory system.
	L1Misses     uint64 `json:"l1Misses"`
	L2Misses     uint64 `json:"l2Misses"`
	MemAccesses  uint64 `json:"memAccesses"`
	Writebacks   uint64 `json:"writebacks"`
	SpecDiscards uint64 `json:"specDiscards"` // data-cache temporary updates discarded (§6.5 variant)

	// Far-memory tier (Config.Mem.FarFrac > 0). Both are zero — and
	// omitted from JSON — when the tier is off, so documents from
	// far-free configs are unchanged.
	FarAccesses         uint64 `json:"farAccesses,omitempty"`
	FarDegradedAccesses uint64 `json:"farDegradedAccesses,omitempty"`
}

// StallCounts are the allocation stall cycles by cause. They are the only
// Results counters a quiescent cycle advances, so the skip engine
// extrapolates them across the gap it jumps.
type StallCounts struct {
	StallSTQ    uint64 `json:"stallSTQ"`
	StallLQ     uint64 `json:"stallLQ"`
	StallSched  uint64 `json:"stallSched"`
	StallRegs   uint64 `json:"stallRegs"`
	StallCkpt   uint64 `json:"stallCkpt"`
	StallWindow uint64 `json:"stallWindow"`
	// StallSDB is always zero: the slice data buffer holds every poisoned
	// uop the window can hold, so it never fills. The field stays because
	// the golden documents and the Results, CSV and timeline formats
	// carry it.
	StallSDB uint64 `json:"stallSDB"`
}

// ActivityCounts are the structure-activity counters the power model
// reads, filled in by finalize.
type ActivityCounts struct {
	CamSearches  uint64 `json:"camSearches"`
	CamEntryOps  uint64 `json:"camEntryOps"`
	LCFProbes    uint64 `json:"lcfProbes"`
	LCFNonZero   uint64 `json:"lcfNonZero"`
	LCFOverflows uint64 `json:"lcfOverflows"`
	FCLookups    uint64 `json:"fcLookups"`
	FCHits       uint64 `json:"fcHits"`
	LBLookups    uint64 `json:"lbLookups"`
	LBEntryCmps  uint64 `json:"lbEntryCmps"`
	LBOverflows  uint64 `json:"lbOverflows"`
	MTBProbes    uint64 `json:"mtbProbes"`
	MTBMaybes    uint64 `json:"mtbMaybes"`
	SRLReads     uint64 `json:"srlReads"`
	SRLWrites    uint64 `json:"srlWrites"`
}

// PoisonedSrcCounts counts an event per uop class, in a fixed array the
// cycle loop indexes. Its names, "sdb_cause_poisoned_src_<class>", are
// the keys of its JSON object, which holds the non-zero classes.
type PoisonedSrcCounts [isa.NumClasses]uint64

const poisonedSrcPrefix = "sdb_cause_poisoned_src_"

// poisonedSrcClass returns the class a PoisonedSrcCounts name counts.
func poisonedSrcClass(name string) (isa.Class, bool) {
	if s, ok := strings.CutPrefix(name, poisonedSrcPrefix); ok {
		for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
			if s == cl.String() {
				return cl, true
			}
		}
	}
	return 0, false
}

// poisonedSrcOrder lists the classes in the order of their names, which is
// the order encoding/json gives the keys of a map.
var poisonedSrcOrder = func() (order [isa.NumClasses]isa.Class) {
	for i := range order {
		order[i] = isa.Class(i)
	}
	sort.Slice(order[:], func(i, j int) bool { return order[i].String() < order[j].String() })
	return order
}()

// MarshalJSON renders the non-zero classes as a name→value object with
// its keys sorted, as encoding/json renders a map: the "extras" object of
// every result document.
func (pc PoisonedSrcCounts) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = append(b, '{')
	for _, cl := range poisonedSrcOrder {
		if pc[cl] == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, poisonedSrcPrefix...)
		b = append(b, cl.String()...)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, pc[cl], 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON rebuilds the counts from their MarshalJSON form. An
// unknown name is an error, as it is for obs.MetricSet: the persistent
// result store treats such a document as unreadable.
func (pc *PoisonedSrcCounts) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*pc = PoisonedSrcCounts{}
	for name, v := range m {
		cl, ok := poisonedSrcClass(name)
		if !ok {
			return fmt.Errorf("core: unknown extra counter %q in document", name)
		}
		pc[cl] = v
	}
	return nil
}

// Metric returns one typed hot-path counter.
func (r *Results) Metric(m obs.Metric) uint64 { return r.Metrics.Get(m) }

// Extra returns a counter by name: a typed metric (see obs.MetricByName)
// or a per-class drain count ("sdb_cause_poisoned_src_<class>"). Unknown
// names read zero.
func (r *Results) Extra(name string) uint64 {
	if m, ok := obs.MetricByName(name); ok {
		return r.Metrics.Get(m)
	}
	if cl, ok := poisonedSrcClass(name); ok {
		return r.PoisonedSrcDrains[cl]
	}
	return 0
}

// ExtraNames lists the names of all non-zero counters Extra answers,
// sorted.
func (r *Results) ExtraNames() []string {
	var names []string
	for _, m := range r.Metrics.NonZero() {
		names = append(names, m.String())
	}
	for cl, v := range r.PoisonedSrcDrains {
		if v > 0 {
			names = append(names, poisonedSrcPrefix+isa.Class(cl).String())
		}
	}
	sort.Strings(names)
	return names
}

// IPC returns committed micro-ops per cycle.
func (r *Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Uops) / float64(r.Cycles)
}

// SpeedupOver returns the percent speedup of r over base for the same
// committed uop count (the paper's y-axes).
func (r *Results) SpeedupOver(base *Results) float64 {
	if r.Cycles == 0 || base.Cycles == 0 {
		return 0
	}
	return (float64(base.Cycles)/float64(r.Cycles) - 1) * 100
}

// PctMissDependentUops returns Table 3 column 4.
func (r *Results) PctMissDependentUops() float64 {
	if r.Uops == 0 {
		return 0
	}
	return 100 * float64(r.MissDependentUops) / float64(r.Uops)
}

// PctMissDependentStores returns Table 3 column 3.
func (r *Results) PctMissDependentStores() float64 {
	if r.Stores == 0 {
		return 0
	}
	return 100 * float64(r.MissDependentStores) / float64(r.Stores)
}

// PctRedoneStores returns Table 3 column 2.
func (r *Results) PctRedoneStores() float64 {
	if r.Stores == 0 {
		return 0
	}
	return 100 * float64(r.RedoneStores) / float64(r.Stores)
}

// SRLStallsPer10K returns Table 3 column 5.
func (r *Results) SRLStallsPer10K() float64 {
	if r.Uops == 0 {
		return 0
	}
	return 10_000 * float64(r.SRLLoadStalls) / float64(r.Uops)
}

// PctTimeSRLOccupied returns Table 3 column 6.
func (r *Results) PctTimeSRLOccupied() float64 {
	if r.SRLOccupancy == nil || r.SRLOccupancy.TotalCycles() == 0 {
		return 0
	}
	return 100 * float64(r.SRLOccupancy.OccupiedCycles()) / float64(r.SRLOccupancy.TotalCycles())
}

// MarshalJSON renders the run as one JSON object: every raw counter plus
// the derived figures the paper reports (ipc, percentage columns), so a
// consumer never has to re-derive them. The document is already what
// json.Marshal makes of r, compact and HTML-escaped, so /v1/simulate
// writes it as it is.
func (r *Results) MarshalJSON() ([]byte, error) {
	type raw Results // shed the method set to avoid recursion
	return json.Marshal(struct {
		*raw
		IPC                    float64 `json:"ipc"`
		PctMissDependentUops   float64 `json:"pctMissDependentUops"`
		PctMissDependentStores float64 `json:"pctMissDependentStores"`
		PctRedoneStores        float64 `json:"pctRedoneStores"`
		SRLStallsPer10K        float64 `json:"srlStallsPer10K"`
		PctTimeSRLOccupied     float64 `json:"pctTimeSRLOccupied"`
	}{
		raw:                    (*raw)(r),
		IPC:                    r.IPC(),
		PctMissDependentUops:   r.PctMissDependentUops(),
		PctMissDependentStores: r.PctMissDependentStores(),
		PctRedoneStores:        r.PctRedoneStores(),
		SRLStallsPer10K:        r.SRLStallsPer10K(),
		PctTimeSRLOccupied:     r.PctTimeSRLOccupied(),
	})
}

// resultsCSVHeader is the WriteCSV column set, kept beside the row writer
// so the two cannot drift apart.
var resultsCSVHeader = []string{
	"suite", "design", "cycles", "uops", "ipc", "loads", "stores",
	"miss_dep_uops", "miss_dep_stores", "redone_stores", "srl_load_stalls",
	"fwd_l1stq", "fwd_l2stq", "fwd_fc", "fwd_indexed",
	"memdep_violations", "snoop_violations", "overflow_violations",
	"branch_mispredicts", "restarts", "replayed_uops",
	"l1_misses", "l2_misses", "mem_accesses",
	"stall_stq", "stall_lq", "stall_sched", "stall_regs", "stall_ckpt", "stall_window", "stall_sdb",
}

// WriteCSV renders the run as a two-line CSV document (header + one row).
func (r *Results) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, h := range resultsCSVHeader {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(h)
	}
	bw.WriteByte('\n')
	fmt.Fprintf(bw, "%s,%s,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		r.Suite, r.Design, r.Cycles, r.Uops, r.IPC(), r.Loads, r.Stores,
		r.MissDependentUops, r.MissDependentStores, r.RedoneStores, r.SRLLoadStalls,
		r.L1STQForwards, r.L2STQForwards, r.FCForwards, r.IndexedForwards,
		r.MemDepViolations, r.SnoopViolations, r.OverflowViolations,
		r.BranchMispredicts, r.Restarts, r.ReplayedUops,
		r.L1Misses, r.L2Misses, r.MemAccesses,
		r.StallSTQ, r.StallLQ, r.StallSched, r.StallRegs, r.StallCkpt, r.StallWindow, r.StallSDB)
	return bw.Flush()
}

// String renders a run summary.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s: %d uops in %d cycles (IPC %.2f)\n",
		r.Suite, r.Design, r.Uops, r.Cycles, r.IPC())
	fmt.Fprintf(&b, "  loads=%d stores=%d missDepUops=%.1f%% missDepStores=%.1f%% redone=%.1f%%\n",
		r.Loads, r.Stores, r.PctMissDependentUops(), r.PctMissDependentStores(), r.PctRedoneStores())
	fmt.Fprintf(&b, "  fwd: L1STQ=%d L2STQ=%d FC=%d indexed=%d srlStalls=%d\n",
		r.L1STQForwards, r.L2STQForwards, r.FCForwards, r.IndexedForwards, r.SRLLoadStalls)
	fmt.Fprintf(&b, "  viol: memdep=%d snoop=%d overflow=%d mispred=%d restarts=%d\n",
		r.MemDepViolations, r.SnoopViolations, r.OverflowViolations, r.BranchMispredicts, r.Restarts)
	fmt.Fprintf(&b, "  mem: L1miss=%d L2miss=%d dram=%d\n", r.L1Misses, r.L2Misses, r.MemAccesses)
	return b.String()
}
