// Package bench defines and runs the paper's experiments: every table and
// figure of the evaluation section is one entry of an ordered registry
// (experiment.go) holding its name, description, point plan, result type
// and chart declaration, and RunExperiment returns the same rows/series
// the paper reports, plus formatting helpers.
//
// RunExperiment honours its context's cancellation and deadline. All
// simulation points execute on the internal/sweep engine: a bounded worker
// pool with panic isolation, progress reporting and process-wide result
// memoization, tuned through Options.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"srlproc/internal/core"
	"srlproc/internal/lsq"
	"srlproc/internal/obs"
	"srlproc/internal/power"
	"srlproc/internal/stats"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// Progress is one sweep progress snapshot; see sweep.Progress.
type Progress = sweep.Progress

// ProgressFunc observes experiment progress; see sweep.ProgressFunc.
type ProgressFunc = sweep.ProgressFunc

// Options control experiment scale (simulated micro-ops per point) and how
// the sweep engine runs the points.
type Options struct {
	WarmupUops uint64
	RunUops    uint64
	Seed       uint64

	// Workers bounds the simulation worker pool: n > 1 runs at most n
	// points concurrently, 1 runs serially, and 0 or negative values mean
	// one worker per CPU (GOMAXPROCS).
	Workers int

	// Progress, when non-nil, is called after every completed point.
	Progress ProgressFunc

	// NoCache disables cross-experiment result memoization, forcing
	// every point to simulate fresh.
	NoCache bool

	// Cache overrides the memo cache the sweep engine uses; nil means the
	// process-wide sweep.Global() cache. Long-lived callers (the srlserved
	// HTTP server) supply their own bounded cache here. Ignored when
	// NoCache is set.
	Cache *sweep.Cache

	// Obs configures per-run observability (cycle-window timeline sampling
	// and event tracing) on every simulated point; the zero value disables
	// both. See obs.Config. Observed points fingerprint differently from
	// unobserved ones, so they memoize separately.
	Obs obs.Config
}

// DefaultOptions is sized for minutes-scale full reproduction runs.
func DefaultOptions() Options {
	return Options{WarmupUops: 30_000, RunUops: 150_000, Seed: 1}
}

// QuickOptions is sized for fast sanity runs and unit tests.
func QuickOptions() Options {
	return Options{WarmupUops: 8_000, RunUops: 40_000, Seed: 1}
}

func (o Options) apply(cfg core.Config) core.Config {
	cfg.WarmupUops = o.WarmupUops
	cfg.RunUops = o.RunUops
	cfg.Seed = o.Seed
	cfg.Obs = o.Obs
	return cfg
}

// Validate reports inconsistent options, so a caller can surface them
// before running anything.
func (o Options) Validate() error {
	if o.RunUops == 0 {
		return fmt.Errorf("bench: RunUops must be positive")
	}
	return nil
}

func (o Options) sweepOptions() sweep.Options {
	return sweep.Options{Workers: o.Workers, Progress: o.Progress, NoCache: o.NoCache, Cache: o.Cache}
}

// labeledConfig pairs one figure-series label with its configuration.
type labeledConfig struct {
	Label string
	Cfg   core.Config
}

// matrixPoints enumerates one configuration per label across all suites in
// sorted label order — the canonical point order of every matrix-shaped
// experiment. The same enumeration runs on a standalone process, on a
// cluster coordinator (which shards the list by point fingerprint) and on
// every worker (which re-derives it to resolve job indexes), so it must be
// deterministic in (cfgs, suites) alone.
func matrixPoints(cfgs map[string]core.Config) []sweep.Point {
	labels := make([]string, 0, len(cfgs))
	for label := range cfgs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var points []sweep.Point
	for _, label := range labels {
		for _, s := range trace.AllSuites() {
			points = append(points, sweep.Point{Label: label, Cfg: cfgs[label], Suite: s})
		}
	}
	return points
}

// matrixRaw reassembles results[label][suite] from a completed matrix
// report. Every point must carry results: a report with failed or missing
// points cannot be aggregated into a figure.
func matrixRaw(rep *sweep.Report) (map[string]map[trace.Suite]*core.Results, error) {
	out := make(map[string]map[trace.Suite]*core.Results)
	for i := range rep.Points {
		pr := &rep.Points[i]
		if pr.Results == nil {
			return nil, pointError(pr)
		}
		m := out[pr.Point.Label]
		if m == nil {
			m = make(map[trace.Suite]*core.Results)
			out[pr.Point.Label] = m
		}
		m[pr.Point.Suite] = pr.Results
	}
	return out, nil
}

// pointError describes a point that finished without results.
func pointError(pr *sweep.PointResult) error {
	if pr.Err != nil {
		return fmt.Errorf("bench: point %s: %w", pr.Point, pr.Err)
	}
	return fmt.Errorf("bench: point %s has no results", pr.Point)
}

// SpeedupSeries is one figure series: percent speedup over baseline per
// suite.
type SpeedupSeries struct {
	Label   string                  `json:"label"`
	BySuite map[trace.Suite]float64 `json:"bySuite"`
}

// FigureResult is a generic speedup figure: several series over the suites.
type FigureResult struct {
	Title  string          `json:"title"`
	Series []SpeedupSeries `json:"series"`
	// Raw results for deeper inspection: raw[label][suite].
	Raw map[string]map[trace.Suite]*core.Results `json:"raw,omitempty"`
}

// String renders the figure as a table (suites as rows, series as columns).
func (f *FigureResult) String() string {
	headers := []string{"Suite"}
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	t := stats.NewTable(f.Title, headers...)
	for _, su := range trace.AllSuites() {
		cells := []interface{}{su.String()}
		for _, s := range f.Series {
			cells = append(cells, s.BySuite[su])
		}
		t.AddRowf(cells...)
	}
	return t.String()
}

// speedupPlan decomposes a percent-speedup figure (each labelled config
// over the baseline config, per suite) into its point list and assembly.
func speedupPlan(o Options, title string, baseline core.Config, labeled []labeledConfig) *plan {
	cfgs := map[string]core.Config{"__base__": o.apply(baseline)}
	for _, lc := range labeled {
		cfgs[lc.Label] = o.apply(lc.Cfg)
	}
	header := []string{"suite"}
	for _, lc := range labeled {
		header = append(header, lc.Label)
	}
	return &plan{
		points:    matrixPoints(cfgs),
		csvHeader: header,
		csvKeys:   []string{"suite"},
		csvRows:   len(trace.AllSuites()),
		assemble: func(rep *sweep.Report) (Result, error) {
			raw, err := matrixRaw(rep)
			if err != nil {
				return nil, err
			}
			fig := &FigureResult{Title: title, Raw: raw}
			for _, lc := range labeled {
				s := SpeedupSeries{Label: lc.Label, BySuite: make(map[trace.Suite]float64)}
				for _, su := range trace.AllSuites() {
					s.BySuite[su] = raw[lc.Label][su].SpeedupOver(raw["__base__"][su])
				}
				fig.Series = append(fig.Series, s)
			}
			return fig, nil
		},
	}
}

// --- Figure 2: store queue size sweep ---

// Figure2Sizes are the paper's swept store queue sizes.
var Figure2Sizes = []int{128, 256, 512, 1024}

// planFigure2 reproduces Figure 2: percent speedup of single-level store
// queues of 128..1K entries over the 48-entry baseline, per suite.
func planFigure2(o Options, title string) *plan {
	base := core.DefaultConfig(core.DesignBaseline)
	var labeled []labeledConfig
	for _, size := range Figure2Sizes {
		cfg := core.DefaultConfig(core.DesignLargeSTQ)
		cfg.STQSize = size
		label := fmt.Sprintf("%d-entry STQ", size)
		if size == 1024 {
			label = "1K-entry STQ"
		}
		labeled = append(labeled, labeledConfig{label, cfg})
	}
	return speedupPlan(o, title, base, labeled)
}

// --- Figure 6: SRL vs hierarchical vs ideal ---

// planFigure6 reproduces Figure 6: SRL vs the hierarchical store queue vs
// an ideal (1K-entry, fast) store queue, as percent speedup over the
// baseline.
func planFigure6(o Options, title string) *plan {
	base := core.DefaultConfig(core.DesignBaseline)
	srl := core.DefaultConfig(core.DesignSRL)
	hier := core.DefaultConfig(core.DesignHierarchical)
	ideal := core.DefaultConfig(core.DesignLargeSTQ)
	ideal.STQSize = 1024
	return speedupPlan(o, title, base,
		[]labeledConfig{
			{"SRL", srl},
			{"Hierarchical STQ", hier},
			{"Ideal STQ", ideal},
		})
}

// --- Table 3: SRL statistics ---

// Table3Row is one suite's SRL statistics.
type Table3Row struct {
	Suite               trace.Suite `json:"suite"`
	RedoneStoresPct     float64     `json:"redoneStoresPct"`
	MissDepStoresPct    float64     `json:"missDepStoresPct"`
	MissDepUopsPct      float64     `json:"missDepUopsPct"`
	SRLLoadStallsPer10K float64     `json:"srlLoadStallsPer10K"`
	PctTimeSRLOccupied  float64     `json:"pctTimeSRLOccupied"`
}

// Table3Result holds all suites' SRL statistics plus raw results.
type Table3Result struct {
	Rows []Table3Row                   `json:"rows"`
	Raw  map[trace.Suite]*core.Results `json:"raw,omitempty"`
}

// String renders the table in the paper's format.
func (t *Table3Result) String() string {
	tb := stats.NewTable("Table 3: SRL statistics",
		"Suite", "Redone Stores(%)", "Miss-dep Stores(%)", "Miss-dep Uops(%)", "SRL Load Stalls/10K", "%time SRL occupied")
	for _, r := range t.Rows {
		tb.AddRowf(r.Suite.String(), r.RedoneStoresPct, r.MissDepStoresPct, r.MissDepUopsPct,
			r.SRLLoadStallsPer10K, r.PctTimeSRLOccupied)
	}
	return tb.String()
}

// planTable3 reproduces Table 3 on the SRL configuration.
func planTable3(o Options, _ string) *plan {
	cfgs := map[string]core.Config{"srl": o.apply(core.DefaultConfig(core.DesignSRL))}
	return &plan{
		points: matrixPoints(cfgs),
		csvHeader: []string{"suite", "redone_stores_pct", "miss_dep_stores_pct",
			"miss_dep_uops_pct", "srl_load_stalls_per_10k", "pct_time_srl_occupied"},
		csvKeys: []string{"suite"},
		csvRows: len(trace.AllSuites()),
		assemble: func(rep *sweep.Report) (Result, error) {
			raw, err := matrixRaw(rep)
			if err != nil {
				return nil, err
			}
			out := &Table3Result{Raw: raw["srl"]}
			for _, su := range trace.AllSuites() {
				r := raw["srl"][su]
				out.Rows = append(out.Rows, Table3Row{
					Suite:               su,
					RedoneStoresPct:     r.PctRedoneStores(),
					MissDepStoresPct:    r.PctMissDependentStores(),
					MissDepUopsPct:      r.PctMissDependentUops(),
					SRLLoadStallsPer10K: r.SRLStallsPer10K(),
					PctTimeSRLOccupied:  r.PctTimeSRLOccupied(),
				})
			}
			return out, nil
		},
	}
}

// --- Figure 7: SRL occupancy distribution ---

// Figure7Result holds, per suite, the percent of SRL-occupied time with
// more than N entries, for the paper's thresholds.
type Figure7Result struct {
	Thresholds []uint64                  `json:"thresholds"`
	BySuite    map[trace.Suite][]float64 `json:"bySuite"`
	// Raw results per suite for deeper inspection (occupancy histograms,
	// timelines when Options.Obs is set).
	Raw map[trace.Suite]*core.Results `json:"raw,omitempty"`
}

// String renders the distribution.
func (f *Figure7Result) String() string {
	headers := []string{"Suite"}
	for _, th := range f.Thresholds {
		headers = append(headers, fmt.Sprintf(">%d", th))
	}
	t := stats.NewTable("Figure 7: SRL occupancy distribution (percent of occupied time)", headers...)
	for _, su := range trace.AllSuites() {
		cells := []interface{}{su.String()}
		for _, v := range f.BySuite[su] {
			cells = append(cells, v)
		}
		t.AddRowf(cells...)
	}
	return t.String()
}

// planFigure7 reproduces Figure 7 from the SRL configuration's occupancy
// tracker.
func planFigure7(o Options, _ string) *plan {
	cfgs := map[string]core.Config{"srl": o.apply(core.DefaultConfig(core.DesignSRL))}
	header := []string{"suite"}
	for _, th := range stats.Figure7Thresholds {
		header = append(header, fmt.Sprintf("gt_%d", th))
	}
	return &plan{
		points:    matrixPoints(cfgs),
		csvHeader: header,
		csvKeys:   []string{"suite"},
		csvRows:   len(trace.AllSuites()),
		assemble: func(rep *sweep.Report) (Result, error) {
			raw, err := matrixRaw(rep)
			if err != nil {
				return nil, err
			}
			out := &Figure7Result{Thresholds: stats.Figure7Thresholds, BySuite: make(map[trace.Suite][]float64), Raw: raw["srl"]}
			for _, su := range trace.AllSuites() {
				occ := raw["srl"][su].SRLOccupancy
				var vals []float64
				for _, th := range out.Thresholds {
					vals = append(vals, 100*occ.FracOccupiedAbove(th))
				}
				out.BySuite[su] = vals
			}
			return out, nil
		},
	}
}

// --- Figure 8: LCF and indexed forwarding ablation ---

// planFigure8 reproduces Figure 8: SRL, SRL without indexed forwarding,
// and SRL without the LCF and indexed forwarding, over the baseline.
func planFigure8(o Options, title string) *plan {
	base := core.DefaultConfig(core.DesignBaseline)
	full := core.DefaultConfig(core.DesignSRL)
	noIF := core.DefaultConfig(core.DesignSRL)
	noIF.UseIndexedFwd = false
	noLCF := core.DefaultConfig(core.DesignSRL)
	noLCF.UseIndexedFwd = false
	noLCF.UseLCF = false
	return speedupPlan(o, title, base,
		[]labeledConfig{
			{"SRL", full},
			{"SRL w/o indexed fwd", noIF},
			{"SRL w/o LCF+IF", noLCF},
		})
}

// --- Figure 9: LCF size and hash sweep ---

// planFigure9 reproduces Figure 9: LCF sizes 256/2K crossed with LAB and
// 3-PAX hashing, plus a no-LCF reference, over the baseline.
func planFigure9(o Options, title string) *plan {
	base := core.DefaultConfig(core.DesignBaseline)
	mk := func(size int, hash lsq.HashKind) core.Config {
		cfg := core.DefaultConfig(core.DesignSRL)
		cfg.LCFSize = size
		cfg.LCFHash = hash
		return cfg
	}
	noLCF := core.DefaultConfig(core.DesignSRL)
	noLCF.UseLCF = false
	noLCF.UseIndexedFwd = false
	return speedupPlan(o, title, base,
		[]labeledConfig{
			{"No LCF", noLCF},
			{"LCF256 + LAB", mk(256, lsq.HashLAB)},
			{"LCF2K + LAB", mk(2048, lsq.HashLAB)},
			{"LCF256 + 3-PAX", mk(256, lsq.Hash3PAX)},
			{"LCF2K + 3-PAX", mk(2048, lsq.Hash3PAX)},
		})
}

// --- Figure 10: forwarding cache vs data cache ---

// planFigure10 reproduces Figure 10: SRL with the separate forwarding
// cache vs using the data cache for temporary updates, over the baseline.
func planFigure10(o Options, title string) *plan {
	base := core.DefaultConfig(core.DesignBaseline)
	fc := core.DefaultConfig(core.DesignSRL)
	dc := core.DefaultConfig(core.DesignSRL)
	dc.UseFC = false
	return speedupPlan(o, title, base,
		[]labeledConfig{
			{"Separate forwarding cache", fc},
			{"Data cache for forwarding", dc},
		})
}

// --- Section 6.2: power and area ---

// RunPowerArea reproduces the Section 6.2 comparison.
func RunPowerArea() string {
	hier, srl, srlFC := power.Section62()
	var b strings.Builder
	b.WriteString("Section 6.2: power and area comparison (90nm, calibrated analytical model)\n")
	for _, r := range []power.Report{hier, srl, srlFC} {
		b.WriteString("  " + r.String() + "\n")
	}
	b.WriteString(fmt.Sprintf("  area reduction: %.1fx   leakage reduction: %.1fx   dynamic reduction: %.1fx\n",
		hier.AreaMM2/srlFC.AreaMM2, hier.LeakageMW/srlFC.LeakageMW, hier.DynamicMW/srlFC.DynamicMW))
	return b.String()
}

// --- Tables 1 and 2 (configuration echoes) ---

// ConfigTable is a titled header+rows view of one configuration echo table
// (Tables 1 and 2). The aligned-text renderers below consume it, and so do
// renderers with other output grammars — the paper-artifact pipeline
// (internal/paper) emits the same rows as Markdown and LaTeX.
type ConfigTable struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// renderConfigTable renders a ConfigTable in the aligned-text format the
// CLI has always printed.
func renderConfigTable(ct ConfigTable) string {
	t := stats.NewTable(ct.Title, ct.Headers...)
	for _, r := range ct.Rows {
		t.AddRow(r...)
	}
	return t.String()
}

// Table1 returns the baseline machine configuration as structured rows.
func Table1() ConfigTable {
	cfg := core.DefaultConfig(core.DesignSRL)
	ct := ConfigTable{Title: "Table 1: baseline processor model", Headers: []string{"Parameter", "Value"}}
	add := func(k, v string) { ct.Rows = append(ct.Rows, []string{k, v}) }
	add("Processor frequency", "8 GHz (100ns memory = 800 cycles)")
	add("Rename/issue/retire width", fmt.Sprintf("%d/%d/4", cfg.AllocWidth, cfg.IssueWidth))
	add("Branch mispred. penalty", fmt.Sprintf("minimum %d cycles", cfg.MispredictPenalty))
	add("Scheduling window size", fmt.Sprintf("%d Int, %d FP, %d Mem", cfg.SchedInt, cfg.SchedFP, cfg.SchedMem))
	add("Map table checkpoints", fmt.Sprintf("%d", cfg.Checkpoints))
	add("Register file", fmt.Sprintf("%d int, %d fp", cfg.IntRegs, cfg.FPRegs))
	add("Store buffer size", fmt.Sprintf("%d", cfg.L1STQSize))
	add("Load buffer", fmt.Sprintf("%d entries", cfg.LQSize))
	add("Memory dependence pred.", fmt.Sprintf("store sets (%d-entry SSIT)", cfg.StoreSetsSize))
	add("Branch predictor", "gshare-perceptron hybrid (64K gshare, 256 perceptron)")
	add("Hardware data prefetcher", fmt.Sprintf("stream-based (%d streams)", cfg.Mem.PrefetchN))
	add("L1 data cache", fmt.Sprintf("%d KB, %d cycles", cfg.Mem.L1Size/1024, cfg.Mem.L1Latency))
	add("L2 unified cache", fmt.Sprintf("%d MB, %d cycles", cfg.Mem.L2Size/(1024*1024), cfg.Mem.L2Latency))
	add("L1/L2 line size", "64 bytes")
	add("Memory lat (req to use)", fmt.Sprintf("%d cycles (100 ns)", cfg.Mem.MemLatency))
	return ct
}

// RenderTable1 prints the baseline machine configuration.
func RenderTable1() string { return renderConfigTable(Table1()) }

// Table2 returns the benchmark suite table as structured rows.
func Table2() ConfigTable {
	ct := ConfigTable{Title: "Table 2: benchmark suites", Headers: []string{"Suite", "# of Bench", "Desc./Examples"}}
	for _, su := range trace.AllSuites() {
		p := trace.ProfileFor(su)
		ct.Rows = append(ct.Rows, []string{p.Name, fmt.Sprintf("%d", p.NumBench), p.Desc})
	}
	return ct
}

// RenderTable2 prints the benchmark suite table.
func RenderTable2() string { return renderConfigTable(Table2()) }

// --- Energy attribution (extension beyond the paper's static Section 6.2) ---

// EnergyRow is one design's simulated-activity energy on one suite.
type EnergyRow struct {
	Design      core.StoreDesign `json:"design"`
	Suite       trace.Suite      `json:"suite"`
	NJPer1KUops float64          `json:"njPer1kUops"`
	CAMSharePct float64          `json:"camSharePct"`
}

// EnergyResult compares secondary load/store structure dynamic energy,
// attributed from simulated activity counts via the calibrated
// per-operation energies of internal/power.
type EnergyResult struct {
	Rows []EnergyRow `json:"rows"`
}

// String renders the comparison (suites as rows, designs as column pairs).
func (e *EnergyResult) String() string {
	t := stats.NewTable("Energy attribution: secondary load/store structures (dynamic, from simulated activity)",
		"Suite", "Design", "nJ / 1k uops", "CAM share %")
	for _, r := range e.Rows {
		t.AddRowf(r.Suite.String(), r.Design.String(), r.NJPer1KUops, r.CAMSharePct)
	}
	return t.String()
}

// planEnergy runs the hierarchical, filtered and SRL designs across all
// suites and attributes dynamic energy to their structure activity. It
// quantifies the paper's argument from the simulation itself: the
// hierarchical design's energy is dominated by CAM comparator activations
// that the SRL design simply never performs.
func planEnergy(o Options, _ string) *plan {
	filtered := core.DefaultConfig(core.DesignFilteredSTQ)
	filtered.STQSize = 1024
	cfgs := map[string]core.Config{
		"hier":     o.apply(core.DefaultConfig(core.DesignHierarchical)),
		"filtered": o.apply(filtered),
		"srl":      o.apply(core.DefaultConfig(core.DesignSRL)),
	}
	return &plan{
		points:    matrixPoints(cfgs),
		csvHeader: []string{"design", "suite", "nj_per_1k_uops", "cam_share_pct"},
		csvKeys:   []string{"design", "suite"},
		csvRows:   len(cfgs) * len(trace.AllSuites()),
		assemble: func(rep *sweep.Report) (Result, error) {
			raw, err := matrixRaw(rep)
			if err != nil {
				return nil, err
			}
			out := &EnergyResult{}
			for _, label := range []string{"hier", "filtered", "srl"} {
				for _, su := range trace.AllSuites() {
					r := raw[label][su]
					a := power.ActivityEnergy{
						CamEntryOps: r.CamEntryOps,
						SRLReads:    r.SRLReads,
						SRLWrites:   r.SRLWrites,
						LCFProbes:   r.LCFProbes,
						FCLookups:   r.FCLookups,
						MTBProbes:   r.MTBProbes,
						LBEntryCmps: r.LBEntryCmps,
					}
					out.Rows = append(out.Rows, EnergyRow{
						Design:      raw[label][su].Design,
						Suite:       su,
						NJPer1KUops: a.TotalPJ() / 1000 / (float64(r.Uops) / 1000),
						CAMSharePct: a.CAMSharePct(),
					})
				}
			}
			return out, nil
		},
	}
}

// --- Latency tolerance sweep (the paper's framing, quantified) ---

// LatencyPoint is one (memory latency, design) measurement.
type LatencyPoint struct {
	Design     core.StoreDesign `json:"design"`
	MemLatency uint64           `json:"memLatency"`
	IPC        float64          `json:"ipc"`
}

// LatencyResult holds the tolerance curves.
type LatencyResult struct {
	Suite  trace.Suite    `json:"suite"`
	Points []LatencyPoint `json:"points"`
}

// String renders IPC vs memory latency, one row per latency, one column per
// design.
func (l *LatencyResult) String() string {
	cells := make([]ipcCell, len(l.Points))
	for i, p := range l.Points {
		cells[i] = ipcCell{p.Design, fmt.Sprint(p.MemLatency), p.IPC}
	}
	return renderIPCPivot(fmt.Sprintf("Latency tolerance on %s (IPC vs memory latency)", l.Suite), "MemLat(cyc)", cells)
}

// ipcCell is one (design, x) IPC measurement of a pivot table.
type ipcCell struct {
	design core.StoreDesign
	x      string
	ipc    float64
}

// renderIPCPivot renders cells as a table with one row per x and one
// column per design, both in first-seen order, IPC to two decimals.
func renderIPCPivot(title, xHeader string, cells []ipcCell) string {
	var designs []core.StoreDesign
	var xs []string
	for _, c := range cells {
		if !slices.Contains(designs, c.design) {
			designs = append(designs, c.design)
		}
		if !slices.Contains(xs, c.x) {
			xs = append(xs, c.x)
		}
	}
	headers := []string{xHeader}
	for _, d := range designs {
		headers = append(headers, d.String()+" IPC")
	}
	t := stats.NewTable(title, headers...)
	for _, x := range xs {
		row := []interface{}{x}
		for _, d := range designs {
			for _, c := range cells {
				if c.design == d && c.x == x {
					row = append(row, fmt.Sprintf("%.2f", c.ipc))
				}
			}
		}
		t.AddRowf(row...)
	}
	return t.String()
}

// LatencySweepLatencies are the swept memory latencies in cycles.
var LatencySweepLatencies = []uint64{200, 400, 800, 1600}

// latencySuite is the suite the Latency and Ordering experiments run.
const latencySuite = trace.SFP2K

// planLatency measures, on latencySuite, how each design's throughput
// degrades as memory latency grows — the latency tolerance the paper's
// title claims. The baseline's small store queue caps its in-flight
// window, so its IPC decays faster with latency than the SRL's (whose
// secondary buffering scales the window with the miss).
func planLatency(o Options, _ string) *plan {
	suite := latencySuite
	type pointID struct {
		d   core.StoreDesign
		lat uint64
	}
	var ids []pointID
	var points []sweep.Point
	for _, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL, core.DesignHierarchical} {
		for _, lat := range LatencySweepLatencies {
			cfg := o.apply(core.DefaultConfig(d))
			cfg.Mem.MemLatency = lat
			ids = append(ids, pointID{d, lat})
			points = append(points, sweep.Point{
				Label: fmt.Sprintf("%s@%d", d, lat),
				Cfg:   cfg,
				Suite: suite,
			})
		}
	}
	return &plan{
		points:    points,
		csvHeader: []string{"suite", "design", "mem_latency", "ipc"},
		csvKeys:   []string{"suite", "design", "mem_latency"},
		csvRows:   len(points),
		assemble: func(rep *sweep.Report) (Result, error) {
			out := &LatencyResult{Suite: suite}
			for i, id := range ids {
				pr := &rep.Points[i]
				if pr.Results == nil {
					return nil, pointError(pr)
				}
				out.Points = append(out.Points, LatencyPoint{
					Design:     id.d,
					MemLatency: id.lat,
					IPC:        pr.Results.IPC(),
				})
			}
			return out, nil
		},
	}
}

// --- Memory-ordering + far-memory scenario pack (DESIGN.md §12) ---

// OrderingPoint is one (design, scenario) measurement of the ordering
// scenario pack.
type OrderingPoint struct {
	Design   core.StoreDesign `json:"design"`
	Scenario string           `json:"scenario"`
	IPC      float64          `json:"ipc"`
}

// OrderingResult holds the scenario-pack grid: how much throughput each
// design keeps when the workload carries fences and acquire/release
// traffic, and when half the working set lives in a far (CXL-like) memory
// tier — separately and combined.
type OrderingResult struct {
	Suite  trace.Suite     `json:"suite"`
	Points []OrderingPoint `json:"points"`
}

// String renders IPC per scenario, one row per scenario, one column per
// design.
func (l *OrderingResult) String() string {
	cells := make([]ipcCell, len(l.Points))
	for i, p := range l.Points {
		cells[i] = ipcCell{p.Design, p.Scenario, p.IPC}
	}
	return renderIPCPivot(fmt.Sprintf("Ordering + far-memory scenarios on %s (IPC)", l.Suite), "Scenario", cells)
}

// orderingScenarios enumerates the scenario pack: {plain, sync} crossed
// with {local, far, far-degraded}. The sync knobs inject 3 fences per 1K
// uops and tag 12% of load/store sites acquire/release; the far tier
// splits half the lines to a 2400-cycle CXL-like band, and the degraded
// variants halve that tier's effective bandwidth mid-run (latency doubles
// from cycle 20K on — the fail-over/degradation knob).
func orderingScenarios() []struct {
	name  string
	apply func(*core.Config)
} {
	sync := func(cfg *core.Config) {
		cfg.FencePer1K = 3
		cfg.AcquireFrac = 0.12
		cfg.ReleaseFrac = 0.12
	}
	far := func(cfg *core.Config) {
		cfg.Mem.FarFrac = 0.5
		cfg.Mem.FarLatency = 2400
	}
	degraded := func(cfg *core.Config) {
		far(cfg)
		cfg.Mem.FarDegradeAfter = 20_000
		cfg.Mem.FarDegradedLatency = 4800
	}
	return []struct {
		name  string
		apply func(*core.Config)
	}{
		{"local", func(*core.Config) {}},
		{"far", far},
		{"far-degraded", degraded},
		{"sync-local", sync},
		{"sync-far", func(cfg *core.Config) { sync(cfg); far(cfg) }},
		{"sync-far-degraded", func(cfg *core.Config) { sync(cfg); degraded(cfg) }},
	}
}

// planOrdering measures the ordering scenario pack on the baseline and the
// SRL machine: the cost of release-consistency enforcement rides on the
// drain path the SRL already owns, so the SRL's advantage should survive
// sync traffic — and widen under far-memory latency, which deepens the
// miss shadows the paper's mechanism hides. It runs latencySuite, as the
// Latency experiment does.
func planOrdering(o Options, _ string) *plan {
	suite := latencySuite
	type pointID struct {
		d    core.StoreDesign
		scen string
	}
	var ids []pointID
	var points []sweep.Point
	for _, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL} {
		for _, sc := range orderingScenarios() {
			cfg := o.apply(core.DefaultConfig(d))
			sc.apply(&cfg)
			ids = append(ids, pointID{d, sc.name})
			points = append(points, sweep.Point{
				Label: fmt.Sprintf("%s@%s", d, sc.name),
				Cfg:   cfg,
				Suite: suite,
			})
		}
	}
	return &plan{
		points:    points,
		csvHeader: []string{"suite", "design", "scenario", "ipc"},
		csvKeys:   []string{"suite", "design", "scenario"},
		csvRows:   len(points),
		assemble: func(rep *sweep.Report) (Result, error) {
			out := &OrderingResult{Suite: suite}
			for i, id := range ids {
				pr := &rep.Points[i]
				if pr.Results == nil {
					return nil, pointError(pr)
				}
				out.Points = append(out.Points, OrderingPoint{
					Design:   id.d,
					Scenario: id.scen,
					IPC:      pr.Results.IPC(),
				})
			}
			return out, nil
		},
	}
}
