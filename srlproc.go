// Package srlproc is a Go reproduction of "Scalable Load and Store
// Processing in Latency Tolerant Processors" (Gandhi, Akkary, Rajwar,
// Srinivasan, Lai — ISCA 2005).
//
// It provides a cycle-level timing simulator of a Continual Flow Pipeline
// (CFP) processor built on Checkpoint Processing and Recovery (CPR), with
// four interchangeable store-processing organisations:
//
//   - the 48-entry-store-queue baseline,
//   - large single-level store queues (the "ideal" configuration at 1K),
//   - the hierarchical two-level store queue with a Membership Test Buffer,
//   - the paper's proposal: the Store Redo Log (SRL) with a Loose Check
//     Filter, a Forwarding Cache, indexed forwarding and a set-associative
//     secondary load buffer.
//
// The package also bundles synthetic workload generators standing in for
// the paper's seven benchmark suites, a calibrated analytical CAM/SRAM
// power & area model replacing the paper's SPICE runs, and experiment
// runners that regenerate every table and figure of the evaluation section.
//
// Quick start:
//
//	cfg := srlproc.DefaultConfig(srlproc.DesignSRL)
//	res, err := srlproc.RunContext(ctx, cfg, srlproc.SINT2K)
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f\n", res.IPC())
//
// To regenerate the paper's figures use the experiment runner:
//
//	res, err := srlproc.RunExperiment(ctx, srlproc.Fig6, srlproc.QuickOptions())
//	if err != nil { ... }
//	fmt.Println(res)                         // the text table
//	fig := res.(*srlproc.FigureResult)       // the typed payload
//
// RunExperiment(ctx, id, opts) is the single entry point behind every
// experiment of the evaluation (AllExperiments lists them). Experiments
// execute on the internal sweep engine: a bounded worker pool with
// cancellation, panic isolation, progress reporting and cross-experiment
// result memoization, controlled through Options (Workers, Progress,
// NoCache).
//
// Results can persist across processes: AttachResultStore points the
// process-global memo cache at an on-disk result store (one verified file
// a point), after which identical experiment runs in a restarted process
// replay entirely from durable state (zero simulations, byte-identical
// output).
package srlproc

import (
	"context"
	"io"

	"srlproc/internal/bench"
	"srlproc/internal/core"
	"srlproc/internal/lsq"
	"srlproc/internal/multicore"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// StoreDesign selects the store-processing organisation.
type StoreDesign = core.StoreDesign

// Store-processing designs.
const (
	DesignBaseline     = core.DesignBaseline
	DesignLargeSTQ     = core.DesignLargeSTQ
	DesignHierarchical = core.DesignHierarchical
	DesignSRL          = core.DesignSRL
	DesignFilteredSTQ  = core.DesignFilteredSTQ
)

// Config parameterises a simulation (see core.DefaultConfig for Table 1).
type Config = core.Config

// Results is a simulation run's output.
type Results = core.Results

// Divergence is one mismatch between the pipeline and the lockstep
// reference memory model, reported in Results.Divergences when the run was
// executed with Config.Check set. A correct machine produces none; each
// carries the divergence kind, the involved load/store sequence numbers
// and the recent observability event trail.
type Divergence = oracle.Divergence

// Suite identifies a benchmark suite (Table 2).
type Suite = trace.Suite

// The seven benchmark suites of Table 2.
const (
	SFP2K  = trace.SFP2K
	SINT2K = trace.SINT2K
	WEB    = trace.WEB
	MM     = trace.MM
	PROD   = trace.PROD
	SERVER = trace.SERVER
	WS     = trace.WS
)

// LCF hash functions (Section 6.4).
const (
	HashLAB  = lsq.HashLAB
	Hash3PAX = lsq.Hash3PAX
)

// AllSuites lists every suite in the paper's presentation order.
func AllSuites() []Suite { return trace.AllSuites() }

// ParseDesign resolves a design name: a StoreDesign String name or a short
// spelling (baseline, large, ideal, hier, srl, filtered), ignoring case.
func ParseDesign(name string) (StoreDesign, error) { return core.ParseDesign(name) }

// ParseSuite resolves a suite name, ignoring case.
func ParseSuite(name string) (Suite, error) { return trace.ParseSuite(name) }

// DefaultConfig returns the Table 1 machine with the given store design.
func DefaultConfig(d StoreDesign) Config { return core.DefaultConfig(d) }

// RunContext simulates cfg on the given workload suite and returns the
// measured results. The context is polled every few thousand simulated
// cycles; once it is cancelled or past its deadline the simulation stops
// and the returned error wraps ctx.Err().
func RunContext(ctx context.Context, cfg Config, suite Suite) (*Results, error) {
	c, err := core.New(cfg, suite)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// TraceSource supplies micro-ops to the simulator; synthetic generators and
// recorded trace files both implement it.
type TraceSource = trace.Source

// NewSyntheticSource returns the suite's synthetic workload generator as a
// TraceSource (useful for recording trace files).
func NewSyntheticSource(suite Suite, seed uint64) TraceSource {
	return trace.NewGenerator(trace.ProfileFor(suite), seed)
}

// RecordTrace captures n micro-ops from src into w using the repository's
// simple fixed-record trace format; NewTraceReader replays such files.
func RecordTrace(w io.Writer, src TraceSource, n uint64) error {
	return trace.Record(w, src, n)
}

// NewTraceReader opens a recorded trace for replay. The reader loops the
// trace to provide the unbounded stream the simulator expects.
func NewTraceReader(rs io.ReadSeeker) (TraceSource, error) {
	return trace.NewReader(rs)
}

// RunFromSourceContext simulates cfg over an arbitrary micro-op source
// (e.g. a recorded trace) with cooperative cancellation, like RunContext.
// The suite only labels results and sets the ambient external-snoop rate.
func RunFromSourceContext(ctx context.Context, cfg Config, src TraceSource, suite Suite) (*Results, error) {
	c, err := core.NewFromSource(cfg, src, trace.ProfileFor(suite))
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// MulticoreConfig parameterises a lockstep multiprocessor simulation with
// real coherence traffic between cores (see internal/multicore).
type MulticoreConfig = multicore.Config

// MulticoreResults aggregates a multicore run.
type MulticoreResults = multicore.Results

// DefaultMulticoreConfig returns a 4-core system running the given store
// design and workload suite with moderate sharing.
func DefaultMulticoreConfig(d StoreDesign, suite Suite) MulticoreConfig {
	return multicore.DefaultConfig(d, suite)
}

// NewMulticore builds a lockstep multicore system.
func NewMulticore(cfg MulticoreConfig) (*multicore.System, error) {
	return multicore.New(cfg)
}

// Options scales the experiment runners and tunes the sweep engine that
// executes their simulation points: Workers bounds the worker pool (0
// means one worker per CPU, 1 is serial, n > 1 caps concurrency),
// Progress observes per-point completion, NoCache disables
// cross-experiment result memoization, and Obs enables per-run
// observability on every point.
type Options = bench.Options

// ObsConfig enables run observability: Config.Obs (or Options.Obs) with a
// non-zero SampleEvery records a cycle-window Timeline, and TraceEvents
// records a typed event trace. The zero value disables both; a disabled
// run pays one pointer comparison per cycle and allocates nothing.
type ObsConfig = obs.Config

// DefaultObsConfig returns observability defaults: a 4096-cycle sampling
// window and event tracing enabled.
func DefaultObsConfig() ObsConfig { return obs.DefaultConfig() }

// Timeline is a run's cycle-window time-series: IPC, structure
// occupancies, stall-cause and forwarding-mix deltas per sampling window.
// Found on Results.Timeline when observability is enabled; export with
// WriteCSV, WriteJSONL or MarshalJSON.
type Timeline = obs.Timeline

// TraceWriter is a run's typed pipeline event trace (checkpoints,
// restarts, miss returns, redo drains, violations). Found on
// Results.Trace when tracing is enabled; export with WriteJSONL or, for
// chrome://tracing / Perfetto, WriteChromeTrace.
type TraceWriter = obs.TraceWriter

// Metric identifies one typed hot-path counter; read values with
// Results.Metric and enumerate with AllMetrics.
type Metric = obs.Metric

// AllMetrics lists every typed metric in declaration order.
func AllMetrics() []Metric { return obs.AllMetrics() }

// EventKind is a typed pipeline event recorded by the trace hook; query
// counts with Results.Trace.Count.
type EventKind = obs.EventKind

// The trace event kinds (see obs.EventKind for per-kind Arg semantics).
const (
	EvCheckpointCreate  = obs.EvCheckpointCreate
	EvCheckpointCommit  = obs.EvCheckpointCommit
	EvRestart           = obs.EvRestart
	EvMissReturn        = obs.EvMissReturn
	EvRedoStart         = obs.EvRedoStart
	EvRedoEnd           = obs.EvRedoEnd
	EvMemDepViolation   = obs.EvMemDepViolation
	EvSnoopViolation    = obs.EvSnoopViolation
	EvOverflowViolation = obs.EvOverflowViolation
	EvBranchMispredict  = obs.EvBranchMispredict
)

// Progress is one snapshot of a running sweep: points done/total, cache
// hits, failures, elapsed wall time and a naive ETA.
type Progress = sweep.Progress

// ProgressFunc receives Progress snapshots; set it on Options.Progress.
// With more than one worker it is called concurrently.
type ProgressFunc = sweep.ProgressFunc

// CacheStats is a snapshot of the sweep memo cache's accounting: hit,
// miss and eviction counters plus the current and maximum entry and byte
// footprint.
type CacheStats = sweep.Stats

// SweepCacheStats returns the process-global memo cache's counters. The
// cache is bounded by default (sweep.DefaultCacheEntries entries,
// sweep.DefaultCacheBytes bytes, LRU eviction); long-lived processes such
// as cmd/srlserved poll these counters for /metrics.
func SweepCacheStats() CacheStats { return sweep.Global().Stats() }

// SetSweepCacheBudget re-bounds the process-global memo cache, evicting
// least-recently-used entries immediately if the new budget is smaller.
// A maxEntries or maxBytes of zero or below disables that bound.
func SetSweepCacheBudget(maxEntries int, maxBytes int64) {
	sweep.Global().SetBudget(maxEntries, maxBytes)
}

// ResetSweepCache drops every memoized sweep result and zeroes the cache
// counters. Safe to call concurrently with running sweeps: in-flight
// computations finish against the old generation and are not re-inserted.
func ResetSweepCache() { sweep.Global().Reset() }

// ResultStoreStats snapshots the persistent result store's contents and
// counters (stored files and their bytes, hits/misses/puts, quarantined
// files).
type ResultStoreStats = store.Stats

// AttachResultStore opens (creating if needed) an on-disk result store
// rooted at dir and installs it as the persistent tier under the
// process-global memo cache. From then on, memo misses fall through to
// the store before simulating and completed results write through
// asynchronously, so a restarted process replays identical experiments
// with zero simulations and byte-identical output. Each point is one file
// holding its result document and the document's SHA-256; a file that
// fails the check on read is quarantined and the point recomputes. The
// results of observed or checked runs (a Timeline, a Trace or oracle
// divergences) do not round-trip through JSON and are not persisted.
//
// Store keys include this binary's code-version stamp: a rebuilt binary
// computes under a fresh stamp and never reads another build's results.
// Call FlushResultStore before exiting to guarantee the final results
// reached disk.
func AttachResultStore(dir string) error {
	st, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	sweep.Global().AttachStore(st)
	return nil
}

// FlushResultStore blocks until every completed result queued for
// write-through has reached the attached store (no-op when none is
// attached).
func FlushResultStore() { sweep.Global().FlushStore() }

// SweepStoreStats returns the attached persistent store's counters; ok is
// false when AttachResultStore has not been called.
func SweepStoreStats() (st ResultStoreStats, ok bool) {
	return sweep.Global().StoreStats()
}

// DefaultOptions sizes experiments for a full reproduction run;
// QuickOptions for fast sanity passes.
func DefaultOptions() Options { return bench.DefaultOptions() }

// QuickOptions returns reduced-scale options.
func QuickOptions() Options { return bench.QuickOptions() }

// FigureResult is a generic speedup figure: one series per configuration,
// percent speedup over the baseline per suite, plus the raw per-point
// results. RunExperiment returns it for Fig2, Fig6, Fig8, Fig9 and Fig10.
type FigureResult = bench.FigureResult

// Table3Result holds every suite's SRL statistics (Table 3).
type Table3Result = bench.Table3Result

// Figure7Result is the SRL occupancy distribution (Figure 7).
type Figure7Result = bench.Figure7Result

// EnergyResult compares secondary load/store structure dynamic energy
// attributed from simulated activity (the Energy experiment).
type EnergyResult = bench.EnergyResult

// LatencyResult holds the per-design IPC-vs-memory-latency tolerance
// curves (the Latency experiment).
type LatencyResult = bench.LatencyResult

// OrderingResult holds the per-design IPC of the memory-ordering and
// far-memory scenario pack (the Ordering experiment).
type OrderingResult = bench.OrderingResult

// ExperimentID names one experiment of the paper's evaluation; it is the
// vocabulary RunExperiment, cmd/experiments and the HTTP service share.
type ExperimentID = bench.ExperimentID

// The experiments, in the evaluation's presentation order.
const (
	Fig2     = bench.Fig2
	Fig6     = bench.Fig6
	Table3   = bench.Table3
	Fig7     = bench.Fig7
	Fig8     = bench.Fig8
	Fig9     = bench.Fig9
	Fig10    = bench.Fig10
	Energy   = bench.Energy
	Latency  = bench.Latency
	Ordering = bench.Ordering
)

// ExperimentResult is RunExperiment's result: String renders its text
// table, json.Marshal its JSON document and WriteCSV its CSV series.
// Assert the concrete type for the typed payload (*FigureResult for the
// speedup figures, *Table3Result, *Figure7Result, *EnergyResult,
// *LatencyResult, *OrderingResult).
type ExperimentResult = bench.Result

// AllExperiments lists every experiment in presentation order.
func AllExperiments() []ExperimentID { return bench.AllExperiments() }

// ParseExperimentID resolves an experiment's canonical name (as
// ExperimentID.String returns it for each of AllExperiments) or its
// "figure2"-style alias, case-insensitively.
func ParseExperimentID(name string) (ExperimentID, error) {
	return bench.ParseExperimentID(name)
}

// RunExperiment runs one experiment of the paper's evaluation. The Latency
// and Ordering experiments run SFP2K.
func RunExperiment(ctx context.Context, id ExperimentID, o Options) (ExperimentResult, error) {
	return bench.RunExperiment(ctx, id, o)
}

// RenderTable1 prints the baseline machine configuration (Table 1). It
// runs no simulation and needs no context.
func RenderTable1() string { return bench.RenderTable1() }

// RenderTable2 prints the benchmark suite table (Table 2).
func RenderTable2() string { return bench.RenderTable2() }

// RunPowerArea reproduces the Section 6.2 power/area comparison from the
// calibrated analytical model (no timing simulation involved).
func RunPowerArea() string { return bench.RunPowerArea() }
