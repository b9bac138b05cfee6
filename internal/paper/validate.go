package paper

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"srlproc/internal/bench"
)

// ValidateCSV hard-fails a result CSV that does not match its
// experiment's declared shape: exact header, exact data-row count, no
// empty cells, and every cell outside the shape's identity columns a
// finite number (NaN and ±Inf are rejections, not data). A validated CSV
// is guaranteed plottable and summarizable without surprises downstream.
func ValidateCSV(path string, shape bench.ExperimentShape) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("paper: validate: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = len(shape.CSVHeader)
	records, err := r.ReadAll()
	if err != nil {
		return fmt.Errorf("paper: validate %s: %w", path, err)
	}
	if len(records) == 0 {
		return fmt.Errorf("paper: validate %s: empty file", path)
	}
	header := records[0]
	for i, want := range shape.CSVHeader {
		if header[i] != want {
			return fmt.Errorf("paper: validate %s: column %d is %q, want %q (header %v)",
				path, i+1, header[i], want, header)
		}
	}
	rows := records[1:]
	if len(rows) != shape.CSVRows {
		return fmt.Errorf("paper: validate %s: %d data rows, want %d", path, len(rows), shape.CSVRows)
	}
	for ri, row := range rows {
		for ci, cell := range row {
			col := shape.CSVHeader[ci]
			if strings.TrimSpace(cell) == "" {
				return fmt.Errorf("paper: validate %s: row %d column %q is empty", path, ri+1, col)
			}
			if slices.Contains(shape.KeyColumns, col) {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("paper: validate %s: row %d column %q: %q is not numeric", path, ri+1, col, cell)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("paper: validate %s: row %d column %q: non-finite value %q", path, ri+1, col, cell)
			}
		}
	}
	return nil
}

// readCSV loads a validated CSV back as header + rows for the analysis
// and plot stages. It assumes ValidateCSV has already passed.
func readCSV(path string) (header []string, rows [][]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("%s: empty", path)
	}
	return records[0], records[1:], nil
}
