package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"srlproc/internal/sweep"
)

// ExperimentID names one experiment of the paper's evaluation. It is the
// single entry-point vocabulary shared by the library facade
// (srlproc.RunExperiment), the CLI (cmd/experiments) and the HTTP service
// (POST /v1/sweep): every surface resolves a name to an ExperimentID and
// dispatches through RunExperiment, so experiments behave identically no
// matter which door they come in through.
type ExperimentID int

// The experiments, in the evaluation's presentation order — the order of
// the registry below, the CLI report and scripts/paper/experiments.json.
const (
	// Fig2 sweeps single-level store queue sizes (128..1K entries).
	Fig2 ExperimentID = iota
	// Fig6 compares SRL vs hierarchical vs ideal store queues.
	Fig6
	// Table3 reports SRL statistics per suite.
	Table3
	// Fig7 measures the SRL occupancy distribution.
	Fig7
	// Fig8 ablates the LCF and indexed forwarding.
	Fig8
	// Fig9 crosses LCF sizes with hashing functions.
	Fig9
	// Fig10 compares the forwarding cache against data-cache forwarding.
	Fig10
	// Energy attributes dynamic energy to structure activity.
	Energy
	// Latency sweeps memory latency per design on SFP2K.
	Latency
	// Ordering runs the memory-ordering + far-memory scenario pack:
	// {plain, sync} × {local, far, far-degraded} on the baseline and SRL
	// machines, on SFP2K.
	Ordering

	numExperiments
)

// Result is one experiment's result: its text table (String), its JSON
// document (what json.Marshal makes of it, declared by the json tags on
// its type) and its flat CSV series (WriteCSV). Every surface renders
// results through these three forms; callers that want the typed payload
// assert the concrete type the experiment's registry entry declares
// (*FigureResult for the speedup figures, *Table3Result, ...).
type Result interface {
	fmt.Stringer
	WriteCSV(io.Writer) error
}

// ChartForm is how the paper pipeline (internal/paper) draws an
// experiment's CSV.
type ChartForm int

const (
	// TableOnly renders the CSV as Markdown and LaTeX tables, with no chart.
	TableOnly ChartForm = iota
	// SpeedupBars draws suite rows × series columns as grouped bars.
	SpeedupBars
	// ThresholdLines draws suite rows × gt_N columns as one line per suite
	// over the thresholds.
	ThresholdLines
	// PivotBars pivots long-form rows on the Chart's Series, X and Value
	// columns into grouped bars.
	PivotBars
	// PivotLines pivots like PivotBars but draws one line per series.
	PivotLines
)

// Chart declares how the paper pipeline presents an experiment: the title
// and y-axis caption of its figure (or the caption of its table) and the
// form that draws its CSV.
type Chart struct {
	Title  string
	YLabel string
	Form   ChartForm
	// Series, X and Value name the CSV columns a pivot form reads.
	Series, X, Value string
}

// experiment is one registry entry: everything a surface needs to know
// about an experiment, declared once.
type experiment struct {
	name        string // canonical wire name
	description string // one-line summary for the discovery endpoints
	// plan enumerates the experiment's points under o and describes their
	// assembly and CSV form. title is the entry's chart title, which the
	// speedup figures also carry in their result document.
	plan func(o Options, title string) *plan
	// result returns an empty result for decoding a document into.
	result func() Result
	chart  Chart
}

const speedupYLabel = "% speedup over baseline"

func newFigure() Result { return new(FigureResult) }

// experiments is the registry, indexed by ExperimentID and declared in
// presentation order. Adding an experiment is one ExperimentID constant
// plus one entry here (DESIGN.md §5 lists the data files that go with it).
var experiments = [numExperiments]experiment{
	Fig2: {
		name:        "fig2",
		description: "store queue size sweep: 128..1K-entry STQs over the 48-entry baseline",
		plan:        planFigure2,
		result:      newFigure,
		chart: Chart{Form: SpeedupBars, YLabel: speedupYLabel,
			Title: "Figure 2: impact of store queue size (percent speedup over 48-entry STQ)"},
	},
	Fig6: {
		name:        "fig6",
		description: "SRL vs hierarchical vs ideal store queue (percent speedup over baseline)",
		plan:        planFigure6,
		result:      newFigure,
		chart: Chart{Form: SpeedupBars, YLabel: speedupYLabel,
			Title: "Figure 6: SRL performance comparison (percent speedup over baseline)"},
	},
	Table3: {
		name:        "table3",
		description: "SRL statistics per suite",
		plan:        planTable3,
		result:      func() Result { return new(Table3Result) },
		chart:       Chart{Form: TableOnly, Title: "Table 3: SRL statistics"},
	},
	Fig7: {
		name:        "fig7",
		description: "SRL occupancy distribution over the paper's thresholds",
		plan:        planFigure7,
		result:      func() Result { return new(Figure7Result) },
		chart: Chart{Form: ThresholdLines, YLabel: "% of SRL-occupied time above threshold",
			Title: "Figure 7: SRL occupancy distribution (percent of occupied time)"},
	},
	Fig8: {
		name:        "fig8",
		description: "LCF and indexed-forwarding ablation",
		plan:        planFigure8,
		result:      newFigure,
		chart: Chart{Form: SpeedupBars, YLabel: speedupYLabel,
			Title: "Figure 8: impact of LCF and indexed forwarding (percent speedup over baseline)"},
	},
	Fig9: {
		name:        "fig9",
		description: "LCF size crossed with LAB and 3-PAX hashing",
		plan:        planFigure9,
		result:      newFigure,
		chart: Chart{Form: SpeedupBars, YLabel: speedupYLabel,
			Title: "Figure 9: LCF size and hashing function impact (percent speedup over baseline)"},
	},
	Fig10: {
		name:        "fig10",
		description: "separate forwarding cache vs data-cache forwarding",
		plan:        planFigure10,
		result:      newFigure,
		chart: Chart{Form: SpeedupBars, YLabel: speedupYLabel,
			Title: "Figure 10: forwarding design option impact (percent speedup over baseline)"},
	},
	Energy: {
		name:        "energy",
		description: "dynamic energy attributed to secondary-structure activity",
		plan:        planEnergy,
		result:      func() Result { return new(EnergyResult) },
		chart: Chart{Form: PivotBars, YLabel: "nJ / 1k uops",
			Title:  "Energy attribution: secondary load/store structures (nJ / 1k uops)",
			Series: "design", X: "suite", Value: "nj_per_1k_uops"},
	},
	Latency: {
		name:        "latency",
		description: "IPC vs memory latency per design (suite: Options.LatencySuite, default SFP2K)",
		plan:        planLatency,
		result:      func() Result { return new(LatencyResult) },
		chart: Chart{Form: PivotLines, YLabel: "IPC",
			Title:  "Latency tolerance (IPC vs memory latency)",
			Series: "design", X: "mem_latency", Value: "ipc"},
	},
	Ordering: {
		name:        "ordering",
		description: "memory-ordering + far-memory scenario pack: {plain,sync} x {local,far,far-degraded}",
		plan:        planOrdering,
		result:      func() Result { return new(OrderingResult) },
		chart: Chart{Form: PivotBars, YLabel: "IPC",
			Title:  "Ordering + far-memory scenario pack (IPC)",
			Series: "design", X: "scenario", Value: "ipc"},
	},
}

// Description returns the experiment's one-line summary.
func (id ExperimentID) Description() string {
	if id.Valid() {
		return experiments[id].description
	}
	return ""
}

// Chart returns the experiment's chart declaration.
func (id ExperimentID) Chart() Chart {
	if id.Valid() {
		return experiments[id].chart
	}
	return Chart{}
}

// Aliases returns the alternate names ParseExperimentID accepts for this
// experiment beyond the canonical one ("figure2" for "fig2"); nil when
// the canonical name is the only spelling.
func (id ExperimentID) Aliases() []string {
	if !id.Valid() {
		return nil
	}
	canon := experiments[id].name
	if strings.HasPrefix(canon, "fig") {
		return []string{"figure" + strings.TrimPrefix(canon, "fig")}
	}
	return nil
}

// AllExperiments lists every experiment in presentation order.
func AllExperiments() []ExperimentID {
	out := make([]ExperimentID, numExperiments)
	for i := range out {
		out[i] = ExperimentID(i)
	}
	return out
}

// String returns the canonical experiment name.
func (id ExperimentID) String() string {
	if id.Valid() {
		return experiments[id].name
	}
	return fmt.Sprintf("experiment(%d)", int(id))
}

// Valid reports whether id names a known experiment.
func (id ExperimentID) Valid() bool { return id >= 0 && id < numExperiments }

// MarshalText renders the canonical name, so ExperimentIDs embed cleanly
// in JSON documents and map keys.
func (id ExperimentID) MarshalText() ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("bench: invalid experiment id %d", int(id))
	}
	return []byte(id.String()), nil
}

// UnmarshalText resolves a name via ParseExperimentID (aliases included).
func (id *ExperimentID) UnmarshalText(text []byte) error {
	got, err := ParseExperimentID(string(text))
	if err != nil {
		return err
	}
	*id = got
	return nil
}

// ParseExperimentID resolves the canonical name of one of AllExperiments,
// or one of its Aliases, case-insensitively.
func ParseExperimentID(name string) (ExperimentID, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.Replace(n, "figure", "fig", 1)
	for id := range experiments {
		if n == experiments[id].name {
			return ExperimentID(id), nil
		}
	}
	return 0, fmt.Errorf("bench: unknown experiment %q (have: %s)", name, ExperimentNames())
}

// ExperimentNames returns the canonical names, space-separated in
// presentation order — ready for error messages and usage strings.
func ExperimentNames() string {
	names := make([]string, numExperiments)
	for i := range experiments {
		names[i] = experiments[i].name
	}
	return strings.Join(names, " ")
}

// plan is one experiment's decomposition: the canonical simulation point
// list and the assembly that turns a completed report over exactly those
// points into the experiment's result document. The split is what makes
// experiments distributable — a coordinator enumerates the same points,
// shards them across workers by fingerprint, records each answer at its
// point's index and assembles the identical document.
type plan struct {
	points   []sweep.Point
	assemble func(*sweep.Report) (Result, error)

	// csvHeader, csvKeys and csvRows describe the experiment's WriteCSV
	// form: the exact header fields, the identity columns among them, and
	// the number of data rows below them. Every plan constructor fills them
	// from the same labeled-config lists the assembly uses, so Shape never
	// drifts from the real export.
	csvHeader []string
	csvKeys   []string
	csvRows   int
}

// experimentPlan builds the plan for one experiment under the given
// options. It is deterministic: every process of a cluster derives the
// same point list (and therefore the same point fingerprints) from the
// same (id, Options) pair.
func experimentPlan(id ExperimentID, o Options) (*plan, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("bench: invalid experiment id %d", int(id))
	}
	e := &experiments[id]
	return e.plan(o, e.chart.Title), nil
}

// ExperimentPoints returns the experiment's canonical simulation point
// list under the given options, in the exact order AssembleExperiment
// expects a report's points. Index i of this list is the job identity the
// cluster protocol ships between coordinator and workers: both sides
// re-derive the list from (id, Options) and agree on every index and
// fingerprint without ever serializing a core.Config.
func ExperimentPoints(id ExperimentID, o Options) ([]sweep.Point, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	return p.points, nil
}

// AssembleExperiment aggregates a completed report over exactly the
// ExperimentPoints list — same points, same order — into the experiment's
// result document. The report may come from one sweep.Run or from a
// cluster dispatch that recorded each worker's answer at its point's
// index: the simulator is deterministic in its config, so both assemble
// to byte-identical JSON. Every point must carry results; failed or
// missing points are an error.
func AssembleExperiment(id ExperimentID, o Options, rep *sweep.Report) (Result, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	if len(rep.Points) != len(p.points) {
		return nil, fmt.Errorf("bench: %s report has %d points, want %d", id, len(rep.Points), len(p.points))
	}
	return p.assemble(rep)
}

// DecodeResult rehydrates an experiment's JSON document — as RunExperiment
// marshals it — into the experiment's typed result.
func DecodeResult(id ExperimentID, doc []byte) (Result, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("bench: invalid experiment id %d", int(id))
	}
	r := experiments[id].result()
	if err := json.Unmarshal(doc, r); err != nil {
		return nil, err
	}
	return r, nil
}

// ExperimentShape describes the deterministic output structure of one
// experiment under given options: how many simulation points it
// enumerates, and the exact header fields, identity columns and data-row
// count of its WriteCSV form. The paper-artifact pipeline (internal/paper)
// validates every emitted CSV against this shape, so a truncated run or a
// schema drift hard-fails instead of producing a silently short figure.
type ExperimentShape struct {
	// Points is the canonical simulation point count — len(ExperimentPoints).
	Points int
	// CSVHeader is the experiment's WriteCSV header, one entry per column
	// (unquoted; WriteCSV applies CSV quoting where labels need it).
	CSVHeader []string
	// KeyColumns are the identity columns of CSVHeader, in header order:
	// together they key a row, and they are the only columns that need not
	// hold a number.
	KeyColumns []string
	// CSVRows is the number of data rows WriteCSV emits below the header.
	CSVRows int
}

// Shape returns the experiment's output shape under the given options.
// The shape depends only on the experiment's structure (labels, suites,
// swept latencies), never on simulation scale: quick and full profiles
// share identical shapes.
func Shape(id ExperimentID, o Options) (ExperimentShape, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return ExperimentShape{}, err
	}
	return ExperimentShape{
		Points:     len(p.points),
		CSVHeader:  p.csvHeader,
		KeyColumns: p.csvKeys,
		CSVRows:    p.csvRows,
	}, nil
}

// RunExperiment runs one experiment of the paper's evaluation: resolve an
// ExperimentID (ParseExperimentID for wire names), pick Options, and read
// the returned Result. It is exactly ExperimentPoints → sweep.Run →
// AssembleExperiment, which is also the decomposition the cluster
// coordinator distributes across workers.
func RunExperiment(ctx context.Context, id ExperimentID, o Options) (Result, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(ctx, p.points, o.sweepOptions())
	if err != nil {
		return nil, err
	}
	return p.assemble(rep)
}
