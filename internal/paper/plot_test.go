package paper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"srlproc/internal/bench"
)

var (
	plotCats   = []string{"SFP2K", "WEB", "MM"}
	plotSeries = []Series{
		{Label: "srl", Values: []float64{12.5, -3.2, 0}},
		{Label: "hier", Values: []float64{8.1, 2.4, 5.5}},
	}
)

func TestGroupedBarSVG(t *testing.T) {
	svg, err := GroupedBarSVG("Figure X", "% speedup", plotCats, plotSeries)
	if err != nil {
		t.Fatalf("GroupedBarSVG: %v", err)
	}
	again, err := GroupedBarSVG("Figure X", "% speedup", plotCats, plotSeries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(svg, again) {
		t.Error("renderer is not deterministic")
	}
	s := string(svg)
	for _, want := range []string{
		"<svg xmlns=", "Figure X", "% speedup",
		">srl</text>", ">hier</text>", // legend labels (two series)
		seriesPalette[0], seriesPalette[1],
		">SFP2K</text>", ">WEB</text>", ">MM</text>",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if got := strings.Count(s, "<path "); got != len(plotCats)*len(plotSeries) {
		t.Errorf("%d bars, want %d", got, len(plotCats)*len(plotSeries))
	}
}

func TestLineSVG(t *testing.T) {
	svg, err := LineSVG("Latency", "IPC", []string{"200", "400", "800"}, plotSeries)
	if err != nil {
		t.Fatalf("LineSVG: %v", err)
	}
	s := string(svg)
	if got := strings.Count(s, "<polyline "); got != len(plotSeries) {
		t.Errorf("%d polylines, want %d", got, len(plotSeries))
	}
	if got := strings.Count(s, "<circle "); got != 6 {
		t.Errorf("%d markers, want 6", got)
	}
}

func TestSingleSeriesHasNoLegend(t *testing.T) {
	svg, err := GroupedBarSVG("Solo", "", plotCats, plotSeries[:1])
	if err != nil {
		t.Fatal(err)
	}
	// The title names a single series; a legend swatch row would be noise.
	if strings.Contains(string(svg), `y="34" width="10"`) {
		t.Error("single-series chart rendered a legend")
	}
}

func TestChartErrors(t *testing.T) {
	over := make([]Series, len(seriesPalette)+1)
	for i := range over {
		over[i] = Series{Label: fmt.Sprintf("s%d", i), Values: []float64{1}}
	}
	if _, err := GroupedBarSVG("t", "", []string{"a"}, over); err == nil {
		t.Error("series beyond the palette must error, not cycle hues")
	}
	bad := []Series{{Label: "x", Values: []float64{1, 2}}}
	if _, err := LineSVG("t", "", []string{"a"}, bad); err == nil {
		t.Error("value/category count mismatch must error")
	}
	if _, err := GroupedBarSVG("t", "", nil, plotSeries); err == nil {
		t.Error("empty chart must error")
	}
}

// TestPlotExperimentForms is the registry's completeness test: every
// experiment, run at tiny scale, must survive the whole pipeline —
// RunExperiment → JSON → decode → WriteCSV → ValidateCSV(Shape) → its
// declared chart (or, for table-only entries, its Markdown table). It
// fails whenever an entry's chart declaration or identity columns disagree
// with the CSV the experiment actually writes.
func TestPlotExperimentForms(t *testing.T) {
	o := bench.QuickOptions()
	o.WarmupUops, o.RunUops = 500, 3_000
	for _, id := range bench.AllExperiments() {
		t.Run(id.String(), func(t *testing.T) {
			res, err := bench.RunExperiment(context.Background(), id, o)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			csvBytes, err := resultCSV(id, doc)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), id.String()+".csv")
			if err := os.WriteFile(path, csvBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			shape, err := bench.Shape(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateCSV(path, shape); err != nil {
				t.Fatal(err)
			}
			header, rows, err := readCSV(path)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, row := range rows {
				key := rowKey(shape.KeyColumns, header, row)
				if seen[key] {
					t.Fatalf("identity columns %q do not key the rows: %q repeats", shape.KeyColumns, key)
				}
				seen[key] = true
			}

			chart := id.Chart()
			if chart.Title == "" {
				t.Fatal("chart declares no title")
			}
			draw, drawn := chartForms[chart.Form]
			switch chart.Form {
			case bench.TableOnly:
				if drawn || !isTable(chart) {
					t.Fatal("table-only experiment has a chart drawing")
				}
				if md := MarkdownTable(chart.Title, header, rows); !strings.Contains(md, chart.Title) {
					t.Fatalf("table misses its title:\n%s", md)
				}
				return
			case bench.PivotBars, bench.PivotLines:
				if !slices.Contains(shape.KeyColumns, chart.Series) || !slices.Contains(shape.KeyColumns, chart.X) ||
					slices.Contains(shape.KeyColumns, chart.Value) {
					t.Fatalf("pivot %s/%s/%s must read two identity columns and a value column of %q",
						chart.Series, chart.X, chart.Value, shape.KeyColumns)
				}
				si, xi := slices.Index(header, chart.Series), slices.Index(header, chart.X)
				cells := map[[2]string]bool{}
				for _, row := range rows {
					cells[[2]string{row[si], row[xi]}] = true
				}
				if len(cells) != len(rows) {
					t.Fatalf("pivot on %s × %s folds %d rows into %d cells", chart.Series, chart.X, len(rows), len(cells))
				}
			}
			if !drawn {
				t.Fatalf("chart form %d has no drawing", chart.Form)
			}
			svg, err := draw(chart, header, rows)
			if err != nil {
				t.Fatal(err)
			}
			s := string(svg)
			if !strings.HasPrefix(s, "<svg ") || !strings.Contains(s, esc(chart.Title)) {
				t.Fatalf("chart lacks its svg root or title: %.200s", s)
			}
			// One bar per (category, series), one line per series.
			distinct := func(col string) int {
				i, seen := slices.Index(header, col), map[string]bool{}
				for _, row := range rows {
					seen[row[i]] = true
				}
				return len(seen)
			}
			var bars, lines int
			switch chart.Form {
			case bench.SpeedupBars:
				bars = len(rows) * (len(header) - 1)
			case bench.ThresholdLines:
				lines = len(rows)
				if !strings.Contains(s, ">&gt;") {
					t.Error("threshold axis lacks its >N labels")
				}
			case bench.PivotBars:
				bars = distinct(chart.X) * distinct(chart.Series)
			case bench.PivotLines:
				lines = distinct(chart.Series)
			}
			if got := strings.Count(s, "<path "); got != bars {
				t.Errorf("%d bars, want %d", got, bars)
			}
			if got := strings.Count(s, "<polyline "); got != lines {
				t.Errorf("%d lines, want %d", got, lines)
			}
		})
	}
}
