package paper

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"srlproc/internal/bench"
)

// Analyze runs the analysis stage over a completed (or resumed) run
// directory: it re-validates every CSV against its experiment's shape,
// computes grouped summary statistics across repeats, renders the
// Markdown and LaTeX tables and the SVG figure plots, and writes the
// report.md index. Everything it writes is deterministic in the CSVs, so
// two runs over byte-identical results produce byte-identical analyses.
type AnalyzeConfig struct {
	Grid    *Grid
	Profile string
	Only    []bench.ExperimentID
	Repeats int
	// Dir is the run directory (paper_runs/<stamp>).
	Dir string
}

// experimentRun groups one experiment's repeats for analysis.
type experimentRun struct {
	ID      bench.ExperimentID
	Shape   bench.ExperimentShape
	Chart   bench.Chart
	Repeats []Unit
}

// groupPlan folds the unit plan by experiment, preserving grid order.
func groupPlan(units []Unit) ([]*experimentRun, error) {
	var runs []*experimentRun
	byID := map[bench.ExperimentID]*experimentRun{}
	for _, u := range units {
		er := byID[u.ID]
		if er == nil {
			shape, err := bench.Shape(u.ID, u.Options)
			if err != nil {
				return nil, err
			}
			er = &experimentRun{ID: u.ID, Shape: shape, Chart: u.ID.Chart()}
			byID[u.ID] = er
			runs = append(runs, er)
		}
		er.Repeats = append(er.Repeats, u)
	}
	return runs, nil
}

// Analyze executes the analysis stage; see AnalyzeConfig.
func Analyze(cfg AnalyzeConfig) error {
	units, err := cfg.Grid.Plan(cfg.Profile, cfg.Only, cfg.Repeats)
	if err != nil {
		return err
	}
	runs, err := groupPlan(units)
	if err != nil {
		return err
	}
	anaDir := filepath.Join(cfg.Dir, analysisDir)
	for _, d := range []string{anaDir, filepath.Join(anaDir, "tables"), filepath.Join(anaDir, "plots")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("paper: %w", err)
		}
	}

	// Stage 1: validation. Every CSV must match its declared shape before
	// anything downstream consumes it.
	for _, er := range runs {
		for _, u := range er.Repeats {
			if err := ValidateCSV(filepath.Join(cfg.Dir, csvDir, u.Key()+".csv"), er.Shape); err != nil {
				return err
			}
		}
	}

	if err := writeRunSummary(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writeGroupedSummary(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writeTables(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writePlots(cfg.Dir, runs); err != nil {
		return err
	}
	return writeReport(cfg, runs)
}

// writeRunSummary emits summary_runs.csv: one row per produced CSV with
// its size and the result document's digest (the repeat-identity key).
func writeRunSummary(dir string, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("experiment,repeat,file,rows,csv_bytes,doc_sha256\n")
	for _, er := range runs {
		for _, u := range er.Repeats {
			csvPath := filepath.Join(dir, csvDir, u.Key()+".csv")
			docPath := filepath.Join(dir, csvDir, u.Key()+".json")
			st, err := os.Stat(csvPath)
			if err != nil {
				return err
			}
			doc, err := os.ReadFile(docPath)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%s\n",
				er.ID, u.Repeat, csvDir+"/"+u.Key()+".csv", er.Shape.CSVRows, st.Size(), sha256Hex(doc))
		}
	}
	return writeFileAtomic(filepath.Join(dir, analysisDir, "summary_runs.csv"), []byte(b.String()))
}

// writeGroupedSummary emits summary_grouped.csv: mean/std/min/max of every
// numeric cell across repeats. The simulator is deterministic, so std is
// expected to be exactly zero — a non-zero std here is itself a finding.
func writeGroupedSummary(dir string, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("experiment,row,column,repeats,mean,std,min,max\n")
	for _, er := range runs {
		type cellKey struct{ row, col int }
		var header []string
		var rowKeys []string
		samples := map[cellKey][]float64{}
		for _, u := range er.Repeats {
			h, rows, err := readCSV(filepath.Join(dir, csvDir, u.Key()+".csv"))
			if err != nil {
				return err
			}
			if header == nil {
				header = h
				for _, row := range rows {
					rowKeys = append(rowKeys, rowKey(er.Shape.KeyColumns, h, row))
				}
			}
			for ri, row := range rows {
				for ci, cell := range row {
					if slices.Contains(er.Shape.KeyColumns, header[ci]) {
						continue
					}
					v, err := strconv.ParseFloat(cell, 64)
					if err != nil {
						return fmt.Errorf("paper: %s: %w", u.Key(), err)
					}
					k := cellKey{ri, ci}
					samples[k] = append(samples[k], v)
				}
			}
		}
		for ri, key := range rowKeys {
			for ci, col := range header {
				vals, ok := samples[cellKey{ri, ci}]
				if !ok {
					continue
				}
				mean, std, lo, hi := summarize(vals)
				fmt.Fprintf(&b, "%s,%s,%s,%d,%s,%s,%s,%s\n",
					er.ID, key, col, len(vals), fnum(mean), fnum(std), fnum(lo), fnum(hi))
			}
		}
	}
	return writeFileAtomic(filepath.Join(dir, analysisDir, "summary_grouped.csv"), []byte(b.String()))
}

// rowKey joins a row's identity columns in header order ("srl|SFP2K").
func rowKey(keys, header, row []string) string {
	var parts []string
	for i, col := range header {
		if slices.Contains(keys, col) {
			parts = append(parts, row[i])
		}
	}
	return strings.Join(parts, "|")
}

func summarize(vals []float64) (mean, std, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		mean += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std, lo, hi
}

// fnum formats a summary number deterministically and compactly.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeTables renders Tables 1–3 as Markdown and LaTeX. Tables 1 and 2
// are configuration echoes from bench; every table-only experiment in the
// grid (Table 3) renders from the run's own measured CSV.
func writeTables(dir string, runs []*experimentRun) error {
	emit := func(name, title string, headers []string, rows [][]string) error {
		md := MarkdownTable(title, headers, rows)
		if err := writeFileAtomic(filepath.Join(dir, analysisDir, "tables", name+".md"), []byte(md)); err != nil {
			return err
		}
		tex := LaTeXTable(title, headers, rows)
		return writeFileAtomic(filepath.Join(dir, analysisDir, "tables", name+".tex"), []byte(tex))
	}
	for name, ct := range map[string]bench.ConfigTable{"table1": bench.Table1(), "table2": bench.Table2()} {
		if err := emit(name, ct.Title, ct.Headers, ct.Rows); err != nil {
			return err
		}
	}
	for _, er := range runs {
		if !isTable(er.Chart) {
			continue
		}
		header, rows, err := readCSV(filepath.Join(dir, csvDir, er.Repeats[0].Key()+".csv"))
		if err != nil {
			return err
		}
		if err := emit(er.ID.String(), er.Chart.Title, header, rows); err != nil {
			return err
		}
	}
	return nil
}

// writePlots renders the figure SVGs from the first repeat's CSV (repeats
// are byte-identical; `-check` enforces it).
func writePlots(dir string, runs []*experimentRun) error {
	for _, er := range runs {
		draw, ok := chartForms[er.Chart.Form]
		if !ok {
			continue // table-only: writeTables renders it
		}
		header, rows, err := readCSV(filepath.Join(dir, csvDir, er.Repeats[0].Key()+".csv"))
		if err != nil {
			return err
		}
		svg, err := draw(er.Chart, header, rows)
		if err != nil {
			return err
		}
		if err := writeFileAtomic(filepath.Join(dir, analysisDir, "plots", er.ID.String()+".svg"), svg); err != nil {
			return err
		}
	}
	return nil
}

// chartForms draws each chart form from an experiment's CSV. TableOnly has
// no entry: those experiments render as tables (writeTables).
var chartForms = map[bench.ChartForm]func(c bench.Chart, header []string, rows [][]string) ([]byte, error){
	bench.SpeedupBars:    speedupBars,
	bench.ThresholdLines: thresholdLines,
	bench.PivotBars: func(c bench.Chart, header []string, rows [][]string) ([]byte, error) {
		return pivotChart(c, header, rows, GroupedBarSVG)
	},
	bench.PivotLines: func(c bench.Chart, header []string, rows [][]string) ([]byte, error) {
		return pivotChart(c, header, rows, LineSVG)
	},
}

// isTable reports whether an experiment renders as a table, not a chart.
func isTable(c bench.Chart) bool {
	_, drawn := chartForms[c.Form]
	return !drawn
}

// speedupBars draws suite rows × series columns as grouped bars.
func speedupBars(c bench.Chart, header []string, rows [][]string) ([]byte, error) {
	var cats []string
	series := make([]Series, len(header)-1)
	for i, h := range header[1:] {
		series[i].Label = h
	}
	for _, row := range rows {
		cats = append(cats, row[0])
		for i, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, err
			}
			series[i].Values = append(series[i].Values, v)
		}
	}
	return GroupedBarSVG(c.Title, c.YLabel, cats, series)
}

// thresholdLines draws suite rows × "gt_N" threshold columns as one line
// per suite over ">N" x labels.
func thresholdLines(c bench.Chart, header []string, rows [][]string) ([]byte, error) {
	xs := make([]string, len(header)-1)
	for i, h := range header[1:] {
		xs[i] = ">" + strings.TrimPrefix(h, "gt_")
	}
	var series []Series
	for _, row := range rows {
		s := Series{Label: row[0]}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, err
			}
			s.Values = append(s.Values, v)
		}
		series = append(series, s)
	}
	return LineSVG(c.Title, c.YLabel, xs, series)
}

// pivotChart pivots long-form rows on the chart's Series, X and Value
// columns into chart series, preserving first-seen order for both axes.
func pivotChart(c bench.Chart, header []string, rows [][]string,
	render func(string, string, []string, []Series) ([]byte, error)) ([]byte, error) {
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, name := range []string{c.Series, c.X, c.Value} {
		if _, ok := col[name]; !ok {
			return nil, fmt.Errorf("paper: pivot: no column %q in %v", name, header)
		}
	}
	var xs []string
	xIdx := map[string]int{}
	var series []Series
	sIdx := map[string]int{}
	for _, row := range rows {
		x := row[col[c.X]]
		if _, ok := xIdx[x]; !ok {
			xIdx[x] = len(xs)
			xs = append(xs, x)
		}
		name := row[col[c.Series]]
		if _, ok := sIdx[name]; !ok {
			sIdx[name] = len(series)
			series = append(series, Series{Label: name})
		}
	}
	for i := range series {
		series[i].Values = make([]float64, len(xs))
	}
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[col[c.Value]], 64)
		if err != nil {
			return nil, err
		}
		series[sIdx[row[col[c.Series]]]].Values[xIdx[row[col[c.X]]]] = v
	}
	return render(c.Title, c.YLabel, xs, series)
}

// writeReport writes the analysis/report.md index. It is deterministic in
// the run's results: wall times and timestamps stay in the manifest.
func writeReport(cfg AnalyzeConfig, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("# Paper reproduction report\n\n")
	b.WriteString("Scalable Load and Store Processing in Latency Tolerant Processors — regenerated artifacts.\n\n")
	fmt.Fprintf(&b, "- profile: `%s`\n- experiments: %d\n", cfg.Profile, len(runs))
	b.WriteString("- provenance: [`manifest.json`](../manifest.json) (code stamp, git revision, wall times)\n")
	b.WriteString("- summaries: [`summary_runs.csv`](summary_runs.csv), [`summary_grouped.csv`](summary_grouped.csv)\n")
	b.WriteString("- checks: `check.md` appears here when the run used `-check`\n\n")

	b.WriteString("## Configuration tables\n\n")
	for _, name := range []string{"table1", "table2"} {
		fmt.Fprintf(&b, "- [%s](tables/%s.md) ([LaTeX](tables/%s.tex))\n", name, name, name)
	}
	b.WriteString("\n## Experiments\n\n")
	for _, er := range runs {
		fmt.Fprintf(&b, "### %s\n\n%s\n\n", er.ID, er.ID.Description())
		fmt.Fprintf(&b, "- points: %d · repeats: %d · CSV: ", er.Shape.Points, len(er.Repeats))
		for i, u := range er.Repeats {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[`%s.csv`](../csv/%s.csv)", u.Key(), u.Key())
		}
		b.WriteString("\n")
		if isTable(er.Chart) {
			fmt.Fprintf(&b, "- tables: [%s.md](tables/%s.md) ([LaTeX](tables/%s.tex))\n\n", er.ID, er.ID, er.ID)
			md, err := os.ReadFile(filepath.Join(cfg.Dir, analysisDir, "tables", er.ID.String()+".md"))
			if err != nil {
				return err
			}
			b.Write(md)
			b.WriteString("\n")
		} else {
			fmt.Fprintf(&b, "\n![%s](plots/%s.svg)\n\n", er.ID, er.ID)
		}
	}
	return writeFileAtomic(filepath.Join(cfg.Dir, analysisDir, "report.md"), []byte(b.String()))
}
