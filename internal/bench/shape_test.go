package bench

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"slices"
	"testing"
)

// TestShapeMatchesWriteCSV pins Shape to reality: for every experiment, the
// declared CSV header and row count must match what the experiment's
// WriteCSV actually emits, and Points must match ExperimentPoints. The
// paper pipeline's validator trusts this shape, so drift here would let a
// malformed artifact through.
func TestShapeMatchesWriteCSV(t *testing.T) {
	o := tinyOptions()
	for _, id := range AllExperiments() {
		shape, err := Shape(id, o)
		if err != nil {
			t.Fatalf("%v: shape: %v", id, err)
		}
		points, err := ExperimentPoints(id, o)
		if err != nil {
			t.Fatalf("%v: points: %v", id, err)
		}
		if shape.Points != len(points) {
			t.Errorf("%v: shape.Points = %d, want %d", id, shape.Points, len(points))
		}
		if len(shape.CSVHeader) == 0 || len(shape.KeyColumns) == 0 || shape.CSVRows == 0 {
			t.Fatalf("%v: degenerate shape %+v", id, shape)
		}
		for _, k := range shape.KeyColumns {
			if !slices.Contains(shape.CSVHeader, k) {
				t.Errorf("%v: key column %q is not in header %q", id, k, shape.CSVHeader)
			}
		}

		r, err := RunExperiment(context.Background(), id, o)
		if err != nil {
			t.Fatalf("%v: run: %v", id, err)
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("%v: WriteCSV: %v", id, err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%v: parse CSV: %v", id, err)
		}
		if len(records) == 0 {
			t.Fatalf("%v: empty CSV", id)
		}
		if !reflect.DeepEqual(records[0], shape.CSVHeader) {
			t.Errorf("%v: CSV header %q, shape declares %q", id, records[0], shape.CSVHeader)
		}
		if got := len(records) - 1; got != shape.CSVRows {
			t.Errorf("%v: CSV has %d data rows, shape declares %d", id, got, shape.CSVRows)
		}
	}
}

// TestShapeScaleInvariant pins the quick/full contract the paper pipeline's
// profiles rely on: simulation scale (uops, warmup, seed) never changes an
// experiment's structure — same points, same CSV schema.
func TestShapeScaleInvariant(t *testing.T) {
	quick := QuickOptions()
	full := DefaultOptions()
	full.Seed = 7
	for _, id := range AllExperiments() {
		qs, err := Shape(id, quick)
		if err != nil {
			t.Fatalf("%v quick: %v", id, err)
		}
		fs, err := Shape(id, full)
		if err != nil {
			t.Fatalf("%v full: %v", id, err)
		}
		if !reflect.DeepEqual(qs, fs) {
			t.Errorf("%v: quick shape %+v != full shape %+v", id, qs, fs)
		}
		qp, _ := ExperimentPoints(id, quick)
		fp, _ := ExperimentPoints(id, full)
		if len(qp) != len(fp) {
			t.Errorf("%v: quick enumerates %d points, full %d", id, len(qp), len(fp))
		}
		for i := range qp {
			if qp[i].Label != fp[i].Label || qp[i].Suite != fp[i].Suite {
				t.Errorf("%v: point %d identity differs: %s/%s vs %s/%s",
					id, i, qp[i].Label, qp[i].Suite, fp[i].Label, fp[i].Suite)
			}
		}
	}
}

// TestConfigTablesRenderIdentically pins the ConfigTable refactor: the
// structured Table1/Table2 rows must render to the exact text the CLI has
// always printed, and carry sane structure for other renderers.
func TestConfigTablesRenderIdentically(t *testing.T) {
	for _, tc := range []struct {
		ct     ConfigTable
		render string
	}{
		{Table1(), RenderTable1()},
		{Table2(), RenderTable2()},
	} {
		if renderConfigTable(tc.ct) != tc.render {
			t.Errorf("%s: structured rows render differently from the legacy text", tc.ct.Title)
		}
		if tc.ct.Title == "" || len(tc.ct.Headers) < 2 || len(tc.ct.Rows) == 0 {
			t.Errorf("%s: degenerate ConfigTable %+v", tc.ct.Title, tc.ct)
		}
		for _, row := range tc.ct.Rows {
			if len(row) != len(tc.ct.Headers) {
				t.Errorf("%s: row %q has %d cells, want %d", tc.ct.Title, row, len(row), len(tc.ct.Headers))
			}
		}
	}
}
