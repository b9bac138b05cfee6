package paper

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srlproc/internal/bench"
)

// testShape mimics a two-row speedup figure: a suite key column plus two
// numeric series columns.
var testShape = bench.ExperimentShape{
	Points:     4,
	CSVHeader:  []string{"suite", "srl", "hier"},
	KeyColumns: []string{"suite"},
	CSVRows:    2,
}

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateCSV(t *testing.T) {
	cases := []struct {
		name, csv string
		want      string // "" = valid
	}{
		{"valid", "suite,srl,hier\nSFP2K,1.25,0.50\nWEB,-3.5,0\n", ""},
		{"quoted key", "suite,srl,hier\n\"SFP,2K\",1,2\nWEB,3,4\n", ""},
		{"wrong columns", "suite,srl,ideal\nSFP2K,1,2\nWEB,3,4\n", "want \"hier\""},
		{"missing column", "suite,srl\nSFP2K,1\nWEB,3\n", "wrong number of fields"},
		{"short row", "suite,srl,hier\nSFP2K,1,2\n", "data rows, want 2"},
		{"extra row", "suite,srl,hier\nSFP2K,1,2\nWEB,3,4\nMM,5,6\n", "data rows, want 2"},
		{"ragged row", "suite,srl,hier\nSFP2K,1\nWEB,3,4\n", "wrong number of fields"},
		{"empty cell", "suite,srl,hier\nSFP2K,,2\nWEB,3,4\n", "is empty"},
		{"nan cell", "suite,srl,hier\nSFP2K,NaN,2\nWEB,3,4\n", "non-finite"},
		{"inf cell", "suite,srl,hier\nSFP2K,+Inf,2\nWEB,3,4\n", "non-finite"},
		{"text cell", "suite,srl,hier\nSFP2K,fast,2\nWEB,3,4\n", "not numeric"},
		{"empty file", "", "empty file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateCSV(writeCSV(t, tc.csv), testShape)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid CSV rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateCSVMissingFile(t *testing.T) {
	if err := ValidateCSV(filepath.Join(t.TempDir(), "nope.csv"), testShape); err == nil {
		t.Fatal("missing file should fail validation")
	}
}
