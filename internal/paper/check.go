package paper

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The -check stage: repeats of a deterministic simulation must agree to
// the byte, and headline metrics must land inside checked-in tolerance
// bands. Both checks read only produced artifacts, so the stage can run
// on a resumed or server-produced directory alike.

// MetricBand asserts one headline metric from one experiment's CSV.
type MetricBand struct {
	// Experiment names the CSV to read ("fig6", "table3", ...).
	Experiment string `json:"experiment"`
	// Match filters rows by key-column equality, e.g.
	// {"suite": "SFP2K"} or {"design": "srl", "suite": "WEB"}.
	// Empty means every row.
	Match map[string]string `json:"match,omitempty"`
	// Column is the numeric column under test.
	Column string `json:"column"`
	// Min and Max bound the value (inclusive) for every matched row.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Note says what the band pins, for the check report.
	Note string `json:"note,omitempty"`
}

// Expectations holds tolerance bands per profile: quick-profile numbers
// differ from full-profile numbers, so each profile pins its own.
type Expectations struct {
	Profiles map[string][]MetricBand `json:"profiles"`
}

// LoadExpectations reads scripts/paper/expectations.json.
func LoadExpectations(path string) (*Expectations, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("paper: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var e Expectations
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("paper: %s: %w", path, err)
	}
	return &e, nil
}

// CheckResult is one line of the check report.
type CheckResult struct {
	Name string
	OK   bool
	// Skip marks a band whose experiment is not in this run's plan (an
	// -only run deliberately restricts it); skipped bands never fail.
	Skip bool
	Info string
}

// Check runs both check families over a completed run directory, writes
// analysis/check.md, and returns an error if anything failed. exp may be
// nil to run only the repeat byte-comparison.
func Check(dir string, units []Unit, exp *Expectations, profile string) ([]CheckResult, error) {
	runs, err := groupPlan(units)
	if err != nil {
		return nil, err
	}
	var results []CheckResult

	// Family 1: repeats must be byte-identical. The simulator is seeded
	// and deterministic; any divergence means nondeterminism crept in.
	for _, er := range runs {
		base, err := os.ReadFile(filepath.Join(dir, csvDir, er.Repeats[0].Key()+".json"))
		if err != nil {
			return nil, err
		}
		ok, info := true, fmt.Sprintf("%d repeat(s) byte-identical, sha %s", len(er.Repeats), sha256Hex(base)[:12])
		for _, u := range er.Repeats[1:] {
			doc, err := os.ReadFile(filepath.Join(dir, csvDir, u.Key()+".json"))
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(base, doc) {
				ok = false
				info = fmt.Sprintf("repeat %d diverges from repeat 1 (sha %s vs %s)",
					u.Repeat, sha256Hex(doc)[:12], sha256Hex(base)[:12])
				break
			}
		}
		results = append(results, CheckResult{Name: "repeats/" + er.ID.String(), OK: ok, Info: info})
	}

	// Family 2: headline metrics inside their tolerance bands.
	if exp != nil {
		bands, ok := exp.Profiles[profile]
		if !ok {
			results = append(results, CheckResult{
				Name: "expectations/" + profile, OK: false,
				Info: fmt.Sprintf("expectations file has no %q profile (has: %s)", profile, strings.Join(profileNames(exp), ", ")),
			})
		}
		for _, band := range bands {
			res, err := checkBand(dir, runs, band)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}

	if err := writeCheckReport(dir, results); err != nil {
		return nil, err
	}
	for _, r := range results {
		if !r.OK {
			return results, fmt.Errorf("paper: check failed: %s: %s", r.Name, r.Info)
		}
	}
	return results, nil
}

func profileNames(e *Expectations) []string {
	var names []string
	for name := range e.Profiles {
		names = append(names, name)
	}
	// Deterministic report text.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return names
}

// checkBand evaluates one tolerance band against repeat 1's CSV.
func checkBand(dir string, runs []*experimentRun, band MetricBand) (CheckResult, error) {
	name := "band/" + band.Experiment + "/" + band.Column
	if len(band.Match) > 0 {
		name += "[" + matchString(band.Match) + "]"
	}
	var er *experimentRun
	for _, r := range runs {
		if r.ID.String() == band.Experiment {
			er = r
			break
		}
	}
	if er == nil {
		// An -only run legitimately restricts the plan; bands for the
		// omitted experiments are skipped, not failed.
		return CheckResult{Name: name, OK: true, Skip: true,
			Info: fmt.Sprintf("skipped: experiment %q not in this run's plan", band.Experiment)}, nil
	}
	header, rows, err := readCSV(filepath.Join(dir, csvDir, er.Repeats[0].Key()+".csv"))
	if err != nil {
		return CheckResult{}, err
	}
	col := -1
	for i, h := range header {
		if h == band.Column {
			col = i
			break
		}
	}
	if col < 0 {
		return CheckResult{Name: name, OK: false,
			Info: fmt.Sprintf("no column %q in %v", band.Column, header)}, nil
	}
	matched := 0
	for _, row := range rows {
		if !rowMatches(header, row, band.Match) {
			continue
		}
		matched++
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return CheckResult{}, fmt.Errorf("paper: %s: %w", band.Experiment, err)
		}
		if v < band.Min || v > band.Max {
			return CheckResult{Name: name, OK: false,
				Info: fmt.Sprintf("row %s: %s = %s outside [%s, %s]%s",
					rowKey(er.Shape.KeyColumns, header, row), band.Column, fnum(v), fnum(band.Min), fnum(band.Max), noteSuffix(band))}, nil
		}
	}
	if matched == 0 {
		return CheckResult{Name: name, OK: false,
			Info: fmt.Sprintf("no rows matched %s", matchString(band.Match))}, nil
	}
	return CheckResult{Name: name, OK: true,
		Info: fmt.Sprintf("%d row(s) inside [%s, %s]%s", matched, fnum(band.Min), fnum(band.Max), noteSuffix(band))}, nil
}

func noteSuffix(band MetricBand) string {
	if band.Note == "" {
		return ""
	}
	return " — " + band.Note
}

func matchString(m map[string]string) string {
	var parts []string
	for k, v := range m {
		parts = append(parts, k+"="+v)
	}
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return strings.Join(parts, ",")
}

func rowMatches(header, row []string, match map[string]string) bool {
	for k, want := range match {
		got, found := "", false
		for i, h := range header {
			if h == k {
				got, found = row[i], true
				break
			}
		}
		if !found || got != want {
			return false
		}
	}
	return true
}

// writeCheckReport writes analysis/check.md: one PASS/FAIL line per check.
func writeCheckReport(dir string, results []CheckResult) error {
	var b strings.Builder
	b.WriteString("# Check report\n\n")
	pass, skip := 0, 0
	for _, r := range results {
		switch {
		case r.Skip:
			skip++
		case r.OK:
			pass++
		}
	}
	if skip > 0 {
		fmt.Fprintf(&b, "%d/%d checks passed, %d skipped.\n\n", pass, len(results)-skip, skip)
	} else {
		fmt.Fprintf(&b, "%d/%d checks passed.\n\n", pass, len(results))
	}
	for _, r := range results {
		verdict := "PASS"
		switch {
		case r.Skip:
			verdict = "SKIP"
		case !r.OK:
			verdict = "**FAIL**"
		}
		fmt.Fprintf(&b, "- %s `%s` — %s\n", verdict, r.Name, r.Info)
	}
	if err := os.MkdirAll(filepath.Join(dir, analysisDir), 0o755); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, analysisDir, "check.md"), []byte(b.String()))
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
