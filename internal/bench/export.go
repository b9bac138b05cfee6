package bench

import (
	"bufio"
	"fmt"
	"io"

	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// CSV exports for every experiment result type: the flat series the
// paper's plots need, suites as rows. A result's JSON document is what
// json.Marshal makes of it, declared by the json tags on its type in
// bench.go; the raw per-point core.Results it embeds encode themselves,
// derived figures included.

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

// WriteCSV renders the energy attribution, one row per (design, suite).
func (e *EnergyResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("design,suite,nj_per_1k_uops,cam_share_pct\n")
	for _, r := range e.Rows {
		fmt.Fprintf(bw, "%s,%s,%.4f,%.4f\n", r.Design, r.Suite, r.NJPer1KUops, r.CAMSharePct)
	}
	return bw.Flush()
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

// WriteCSV renders the grid, one row per (design, scenario).
func (l *OrderingResult) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("suite,design,scenario,ipc\n")
	for _, p := range l.Points {
		fmt.Fprintf(bw, "%s,%s,%s,%.4f\n", l.Suite, p.Design, p.Scenario, p.IPC)
	}
	return bw.Flush()
}
