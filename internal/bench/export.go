package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"srlproc/internal/core"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// Machine-readable exports for every experiment result type. JSON forms
// embed the raw per-point Results (whose own MarshalJSON adds the derived
// figures); CSV forms are the flat series the paper's plots need, suites
// as rows.

// MarshalJSON renders one series with its label and per-suite values.
func (s SpeedupSeries) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Label   string                  `json:"label"`
		BySuite map[trace.Suite]float64 `json:"bySuite"`
	}{s.Label, s.BySuite})
}

// MarshalJSON renders the figure: title, every series, and the raw
// per-(label, suite) results.
func (f *FigureResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Title  string                                   `json:"title"`
		Series []SpeedupSeries                          `json:"series"`
		Raw    map[string]map[trace.Suite]*core.Results `json:"raw,omitempty"`
	}{f.Title, f.Series, f.Raw})
}

// WriteCSV renders the figure with suites as rows and series as columns
// (percent speedup over the figure's baseline).
func (f *FigureResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite")
	for _, s := range f.Series {
		bw.WriteByte(',')
		bw.WriteString(sweep.CSVQuote(s.Label))
	}
	bw.WriteByte('\n')
	for _, su := range trace.AllSuites() {
		bw.WriteString(su.String())
		for _, s := range f.Series {
			fmt.Fprintf(bw, ",%.4f", s.BySuite[su])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MarshalJSON renders the table rows plus the raw per-suite results.
func (t *Table3Result) MarshalJSON() ([]byte, error) {
	type row struct {
		Suite               trace.Suite `json:"suite"`
		RedoneStoresPct     float64     `json:"redoneStoresPct"`
		MissDepStoresPct    float64     `json:"missDepStoresPct"`
		MissDepUopsPct      float64     `json:"missDepUopsPct"`
		SRLLoadStallsPer10K float64     `json:"srlLoadStallsPer10K"`
		PctTimeSRLOccupied  float64     `json:"pctTimeSRLOccupied"`
	}
	rows := make([]row, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = row(r)
	}
	return json.Marshal(struct {
		Rows []row                         `json:"rows"`
		Raw  map[trace.Suite]*core.Results `json:"raw,omitempty"`
	}{rows, t.Raw})
}

// WriteCSV renders Table 3, one row per suite.
func (t *Table3Result) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite,redone_stores_pct,miss_dep_stores_pct,miss_dep_uops_pct,srl_load_stalls_per_10k,pct_time_srl_occupied\n")
	for _, r := range t.Rows {
		fmt.Fprintf(bw, "%s,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			r.Suite, r.RedoneStoresPct, r.MissDepStoresPct, r.MissDepUopsPct,
			r.SRLLoadStallsPer10K, r.PctTimeSRLOccupied)
	}
	return bw.Flush()
}

// MarshalJSON renders the occupancy distribution plus the raw per-suite
// results.
func (f *Figure7Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Thresholds []uint64                      `json:"thresholds"`
		BySuite    map[trace.Suite][]float64     `json:"bySuite"`
		Raw        map[trace.Suite]*core.Results `json:"raw,omitempty"`
	}{f.Thresholds, f.BySuite, f.Raw})
}

// WriteCSV renders the distribution with suites as rows and one ">N"
// column per threshold.
func (f *Figure7Result) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite")
	for _, th := range f.Thresholds {
		fmt.Fprintf(bw, ",gt_%d", th)
	}
	bw.WriteByte('\n')
	for _, su := range trace.AllSuites() {
		bw.WriteString(su.String())
		for _, v := range f.BySuite[su] {
			fmt.Fprintf(bw, ",%.4f", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MarshalJSON renders the energy attribution rows.
func (e *EnergyResult) MarshalJSON() ([]byte, error) {
	type row struct {
		Design      core.StoreDesign `json:"design"`
		Suite       trace.Suite      `json:"suite"`
		NJPer1KUops float64          `json:"njPer1kUops"`
		CAMSharePct float64          `json:"camSharePct"`
	}
	rows := make([]row, len(e.Rows))
	for i, r := range e.Rows {
		rows[i] = row(r)
	}
	return json.Marshal(struct {
		Rows []row `json:"rows"`
	}{rows})
}

// WriteCSV renders the energy attribution, one row per (design, suite).
func (e *EnergyResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("design,suite,nj_per_1k_uops,cam_share_pct\n")
	for _, r := range e.Rows {
		fmt.Fprintf(bw, "%s,%s,%.4f,%.4f\n", r.Design, r.Suite, r.NJPer1KUops, r.CAMSharePct)
	}
	return bw.Flush()
}

// MarshalJSON renders the latency tolerance curves.
func (l *LatencyResult) MarshalJSON() ([]byte, error) {
	type point struct {
		Design     core.StoreDesign `json:"design"`
		MemLatency uint64           `json:"memLatency"`
		IPC        float64          `json:"ipc"`
	}
	points := make([]point, len(l.Points))
	for i, p := range l.Points {
		points[i] = point(p)
	}
	return json.Marshal(struct {
		Suite  trace.Suite `json:"suite"`
		Points []point     `json:"points"`
	}{l.Suite, points})
}

// WriteCSV renders the curves, one row per (design, latency).
func (l *LatencyResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite,design,mem_latency,ipc\n")
	for _, p := range l.Points {
		fmt.Fprintf(bw, "%s,%s,%d,%.4f\n", l.Suite, p.Design, p.MemLatency, p.IPC)
	}
	return bw.Flush()
}

// MarshalJSON renders the ordering scenario-pack grid.
func (l *OrderingResult) MarshalJSON() ([]byte, error) {
	type point struct {
		Design   core.StoreDesign `json:"design"`
		Scenario string           `json:"scenario"`
		IPC      float64          `json:"ipc"`
	}
	points := make([]point, len(l.Points))
	for i, p := range l.Points {
		points[i] = point(p)
	}
	return json.Marshal(struct {
		Suite  trace.Suite `json:"suite"`
		Points []point     `json:"points"`
	}{l.Suite, points})
}

// WriteCSV renders the grid, one row per (design, scenario).
func (l *OrderingResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite,design,scenario,ipc\n")
	for _, p := range l.Points {
		fmt.Fprintf(bw, "%s,%s,%s,%.4f\n", l.Suite, p.Design, p.Scenario, p.IPC)
	}
	return bw.Flush()
}
