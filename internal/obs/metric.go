// Package obs is the simulator's observability layer: typed metric keys
// replacing free-form string counters on the cycle-loop hot path, a
// cycle-window time-series sampler (IPC, structure occupancy, stall causes,
// forwarding mix), and a typed event trace with a Chrome trace-format
// exporter, so runs open in chrome://tracing or Perfetto.
//
// Everything here is designed to be nil-cost when disabled: the core holds
// one pointer that is nil for unobserved runs, metric increments are array
// indexing (no map, no allocation), and no per-cycle work happens beyond a
// single comparison.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Metric is a typed key for one hot-path event counter. Using a dense enum
// instead of string keys keeps counting allocation-free (a fixed array
// increment) and makes the set of metrics a simulator version exports part
// of its API rather than an emergent property of its printf calls.
type Metric uint8

// The typed hot-path metrics. The name table below defines the stable
// machine-readable identifier of each; String returns it.
const (
	// Coherence traffic.
	MetricSnoopsInjected Metric = iota // synthetic external snoops injected
	MetricSnoopsExternal               // snoops delivered via ExternalSnoop (multicore)

	// Cycle-occupancy conditions (incremented at most once per cycle).
	MetricCyclesMissOutstanding // cycles with >=1 long-latency miss in flight
	MetricCyclesSRLNonEmpty     // cycles the SRL held at least one store
	MetricCyclesSRLHeadReady    // cycles the SRL head had its data ready

	// Miss classification.
	MetricMissRegionStream // long-latency misses to the streaming region
	MetricMissRegionHeap   // long-latency misses to the heap region
	MetricMissRegionHot    // long-latency misses to the hot region
	MetricPoisonNewMiss    // poisons that opened a new memory-level miss
	MetricPoisonMerged     // poisons merged into an outstanding miss

	// Slice (CFP) drain causes.
	MetricSDBCauseMissRoot // uops drained as the miss root itself
	MetricSDBCauseMemDep   // uops drained behind a poisoned store dependence

	// Store-queue allocation stalls by machine mode.
	MetricSTQStallSRLMode  // allocation stalled on the STQ during SRL mode
	MetricSTQStallMissMode // stalled with a miss outstanding, SRL empty
	MetricSTQStallQuiet    // stalled with no miss in flight

	// SRL drain gating and conflicts.
	MetricSRLDrainWaitData      // head not drained: data not yet re-executed
	MetricSRLDrainWaitWAR       // head not drained: older loads unfinished
	MetricSRLDrainTempDiscards  // stale temporary updates discarded by redo
	MetricSRLDrainSpecConflicts // one-version speculative write conflicts
	MetricSRLStallLoadCycles    // load-cycles spent stalled on the SRL

	// §6.5 data-cache temporary-update variant.
	MetricTempUpdateFetchStalls   // store processing held for a line fetch
	MetricTempUpdateVersionStalls // held for a conflicting version writeback
	MetricSpecWritebacks          // dirty blocks written back before a temp update
	MetricSpecConflicts           // temp updates lost to one-version conflicts

	// Related-work filtered store queue.
	MetricFilteredSearchesSaved // CAM searches skipped by the membership filter

	// Memory-ordering enforcement (fence / release-acquire, DESIGN.md §12).
	MetricSRLDrainWaitRelease // head not drained: release waits for older loads
	MetricSRLDrainWaitSync    // head not drained: older fence/acquire pending
	MetricFenceWaitCycles     // cycles a fence waited for older ops to perform
	MetricLoadsBlockedOnSync  // loads blocked behind an older fence/acquire

	// NumMetrics bounds the enum; it must stay last.
	NumMetrics
)

// metricTable is the stable name table plus each metric's skip class.
// Names keep the snake_case spelling the free-form counters used, so
// existing output consumers keep working.
//
// perCycle marks a metric that advances by at most a fixed amount per
// cycle while its condition holds; the event-skip engine
// (internal/core/skip.go) extrapolates those across a quiescent gap. An
// unflagged metric is a one-off event that must stay unchanged across the
// skip's probe cycle, so a forgotten flag can only veto skips, never make
// one wrong.
var metricTable = [NumMetrics]struct {
	name     string
	perCycle bool
}{
	MetricSnoopsInjected:          {name: "snoops_injected"},
	MetricSnoopsExternal:          {name: "snoops_external"},
	MetricCyclesMissOutstanding:   {name: "cycles_miss_outstanding", perCycle: true},
	MetricCyclesSRLNonEmpty:       {name: "cycles_srl_nonempty", perCycle: true},
	MetricCyclesSRLHeadReady:      {name: "cycles_srl_head_ready", perCycle: true},
	MetricMissRegionStream:        {name: "miss_region_stream"},
	MetricMissRegionHeap:          {name: "miss_region_heap"},
	MetricMissRegionHot:           {name: "miss_region_hot"},
	MetricPoisonNewMiss:           {name: "poison_new_miss"},
	MetricPoisonMerged:            {name: "poison_merged"},
	MetricSDBCauseMissRoot:        {name: "sdb_cause_miss_root"},
	MetricSDBCauseMemDep:          {name: "sdb_cause_memdep"},
	MetricSTQStallSRLMode:         {name: "stq_stall_srlmode", perCycle: true},
	MetricSTQStallMissMode:        {name: "stq_stall_missmode", perCycle: true},
	MetricSTQStallQuiet:           {name: "stq_stall_quiet", perCycle: true},
	MetricSRLDrainWaitData:        {name: "srl_drain_wait_data", perCycle: true},
	MetricSRLDrainWaitWAR:         {name: "srl_drain_wait_war", perCycle: true},
	MetricSRLDrainTempDiscards:    {name: "srl_drain_temp_discards"},
	MetricSRLDrainSpecConflicts:   {name: "srl_drain_spec_conflicts"},
	MetricSRLStallLoadCycles:      {name: "srl_stall_load_cycles", perCycle: true},
	MetricTempUpdateFetchStalls:   {name: "temp_update_fetch_stalls"},
	MetricTempUpdateVersionStalls: {name: "temp_update_version_stalls"},
	MetricSpecWritebacks:          {name: "spec_writebacks"},
	MetricSpecConflicts:           {name: "spec_conflicts"},
	MetricFilteredSearchesSaved:   {name: "filtered_searches_saved"},
	// A deferred fence re-checks its gate every cycle and a gated SRL head
	// every drain attempt, so those waits are per-cycle; blocking a load
	// is one event (the load then parks on a waiter list).
	MetricSRLDrainWaitRelease: {name: "srl_drain_wait_release", perCycle: true},
	MetricSRLDrainWaitSync:    {name: "srl_drain_wait_sync", perCycle: true},
	MetricFenceWaitCycles:     {name: "fence_wait_cycles", perCycle: true},
	MetricLoadsBlockedOnSync:  {name: "loads_blocked_on_sync"},
}

// String returns the metric's stable machine-readable name.
func (m Metric) String() string {
	if m < NumMetrics {
		return metricTable[m].name
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// PerCycle reports whether m advances by at most a fixed amount per cycle
// while its condition holds, rather than once per event (see metricTable).
func (m Metric) PerCycle() bool { return m < NumMetrics && metricTable[m].perCycle }

// MetricByName resolves a stable name back to its Metric key.
func MetricByName(name string) (Metric, bool) {
	for m, e := range metricTable {
		if e.name == name {
			return Metric(m), true
		}
	}
	return 0, false
}

// AllMetrics lists every typed metric in declaration order.
func AllMetrics() []Metric {
	out := make([]Metric, NumMetrics)
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

// MetricSet is a fixed, allocation-free set of typed counters. The zero
// value is ready to use; incrementing is a single array-indexed add, which
// is what lets the cycle loop count events with no map hashing and no
// per-cycle allocation.
type MetricSet [NumMetrics]uint64

// Inc increments metric m by one.
func (s *MetricSet) Inc(m Metric) { s[m]++ }

// Add increments metric m by delta.
func (s *MetricSet) Add(m Metric, delta uint64) { s[m] += delta }

// Get returns the current value of metric m.
func (s *MetricSet) Get(m Metric) uint64 { return s[m] }

// Merge adds every counter of o into s. Long-lived processes (the
// srlserved HTTP server) use it to aggregate per-run metric sets into a
// service-lifetime snapshot.
func (s *MetricSet) Merge(o *MetricSet) {
	for i := range s {
		s[i] += o[i]
	}
}

// Snapshot returns a name→value copy of the non-zero metrics, decoupled
// from the live set so callers can export it without holding whatever lock
// guards the original.
func (s *MetricSet) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i, v := range s {
		if v != 0 {
			out[Metric(i).String()] = v
		}
	}
	return out
}

// NonZero returns the metrics with non-zero values, in declaration order.
func (s *MetricSet) NonZero() []Metric {
	var out []Metric
	for i, v := range s {
		if v != 0 {
			out = append(out, Metric(i))
		}
	}
	return out
}

// String renders the non-zero metrics one per line, name and value
// aligned as srlsim -v prints every counter.
func (s *MetricSet) String() string {
	var b strings.Builder
	for _, m := range s.NonZero() {
		fmt.Fprintf(&b, "%-40s %d\n", m.String(), s[m])
	}
	return b.String()
}

// UnmarshalJSON rebuilds the set from its MarshalJSON name→value form.
// Unknown metric names are an error rather than silently dropped: a
// document that names a metric this build does not know was produced by a
// different code version, and the persistent result store treats such
// entries as unreadable instead of returning a lossy rehydration.
func (s *MetricSet) UnmarshalJSON(data []byte) error {
	var byName map[string]uint64
	if err := json.Unmarshal(data, &byName); err != nil {
		return err
	}
	*s = MetricSet{}
	for name, v := range byName {
		m, ok := MetricByName(name)
		if !ok {
			return fmt.Errorf("obs: unknown metric %q in document", name)
		}
		s[m] = v
	}
	return nil
}

// MarshalJSON renders the non-zero metrics as a name→value object in
// declaration order.
func (s *MetricSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, m := range s.NonZero() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%d", m.String(), s[m])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}
