package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegressedDegenerateBaselines is the table-driven guard for the
// compare gate's arithmetic: zero-ns and missing-metric baselines must
// never produce NaN/Inf percentages or spurious gate failures.
func TestRegressedDegenerateBaselines(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name      string
		base, cur float64
		threshold float64
		wantBad   bool
		wantNaN   bool // delta has no percentage form
		wantDelta float64
	}{
		{"normal regression", 100, 110, 5, true, false, 10},
		{"normal ok", 100, 104, 5, false, false, 4},
		{"improvement", 100, 50, 5, false, false, -50},
		{"zero baseline, still zero", 0, 0, 5, false, true, 0},
		{"zero baseline, any increase regresses", 0, 1, 5, true, true, 0},
		{"zero baseline, large increase regresses", 0, 1e9, 5, true, true, 0},
		{"missing baseline metric", -1, 100, 5, false, true, 0},
		{"missing current metric", 100, -1, 5, false, true, 0},
		{"both missing", -1, -1, 5, false, true, 0},
		{"NaN baseline never gates", math.NaN(), 100, 5, false, true, 0},
		{"NaN current never gates", 100, math.NaN(), 5, false, true, 0},
		{"Inf baseline never gates", inf, 100, 5, false, true, 0},
		{"Inf current never gates", 100, inf, 5, false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, delta := regressed(tc.base, tc.cur, tc.threshold)
			if bad != tc.wantBad {
				t.Errorf("regressed(%v,%v) bad=%v want %v", tc.base, tc.cur, bad, tc.wantBad)
			}
			if math.IsInf(delta, 0) {
				t.Errorf("regressed(%v,%v) produced Inf delta", tc.base, tc.cur)
			}
			if tc.wantNaN {
				if !math.IsNaN(delta) {
					t.Errorf("regressed(%v,%v) delta=%v, want NaN (no percentage form)", tc.base, tc.cur, delta)
				}
			} else if delta != tc.wantDelta {
				t.Errorf("regressed(%v,%v) delta=%v want %v", tc.base, tc.cur, delta, tc.wantDelta)
			}
		})
	}
}

func TestFmtDeltaNeverNaN(t *testing.T) {
	if s := fmtDelta(math.NaN()); strings.Contains(s, "NaN") {
		t.Fatalf("fmtDelta(NaN) = %q", s)
	}
	if s := fmtDelta(12.5); s != " +12.5%" {
		t.Fatalf("fmtDelta(12.5) = %q", s)
	}
}

// writeDoc writes a compare document to a temp file.
func writeDoc(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCompareRows drives the whole gate over documents with
// zero-baseline, NEW and GONE rows and checks both the verdict and that
// no NaN/Inf leaks into the report.
func TestRunCompareRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", `{"benchmarks":{
		"BenchmarkSteady":  {"ns_per_op": 100, "bytes_per_op": 0, "allocs_per_op": 0},
		"BenchmarkZeroNs":  {"ns_per_op": 0,   "bytes_per_op": -1, "allocs_per_op": -1},
		"BenchmarkRetired": {"ns_per_op": 50,  "bytes_per_op": 8, "allocs_per_op": 1},
		"BenchmarkNoAlloc": {"ns_per_op": 10,  "bytes_per_op": -1, "allocs_per_op": -1}
	}}`)

	t.Run("clean", func(t *testing.T) {
		newPath := writeDoc(t, dir, "new_ok.json", `{"benchmarks":{
			"BenchmarkSteady":  {"ns_per_op": 102, "bytes_per_op": 0, "allocs_per_op": 0},
			"BenchmarkZeroNs":  {"ns_per_op": 0,   "bytes_per_op": -1, "allocs_per_op": -1},
			"BenchmarkNoAlloc": {"ns_per_op": 10,  "bytes_per_op": 16, "allocs_per_op": 2},
			"BenchmarkAdded":   {"ns_per_op": 999, "bytes_per_op": 10, "allocs_per_op": 3}
		}}`)
		var out strings.Builder
		if code := runCompare(&out, oldPath, newPath, 5); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		report := out.String()
		// NEW and GONE rows are reported but never gate; a metric that
		// appears (allocs absent -> present) must not gate either.
		for _, want := range []string{"NEW    BenchmarkAdded", "GONE   BenchmarkRetired", "no regressions"} {
			if !strings.Contains(report, want) {
				t.Errorf("report missing %q:\n%s", want, report)
			}
		}
		for _, banned := range []string{"NaN", "Inf", "REGRES"} {
			if strings.Contains(report, banned) {
				t.Errorf("report contains %q:\n%s", banned, report)
			}
		}
	})

	t.Run("zero baseline regresses on any increase", func(t *testing.T) {
		newPath := writeDoc(t, dir, "new_alloc.json", `{"benchmarks":{
			"BenchmarkSteady": {"ns_per_op": 100, "bytes_per_op": 64, "allocs_per_op": 2}
		}}`)
		var out strings.Builder
		if code := runCompare(&out, oldPath, newPath, 5); code != 1 {
			t.Fatalf("zero-baseline alloc increase passed the gate (exit %d):\n%s", code, out.String())
		}
		if s := out.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Fatalf("report contains NaN/Inf:\n%s", s)
		}
	})

	t.Run("zero ns baseline alone never gates", func(t *testing.T) {
		newPath := writeDoc(t, dir, "new_zero.json", `{"benchmarks":{
			"BenchmarkZeroNs": {"ns_per_op": 0, "bytes_per_op": -1, "allocs_per_op": -1}
		}}`)
		var out strings.Builder
		if code := runCompare(&out, oldPath, newPath, 5); code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
	})

	t.Run("missing document", func(t *testing.T) {
		var out strings.Builder
		if code := runCompare(&out, filepath.Join(dir, "nope.json"), oldPath, 5); code != 2 {
			t.Fatalf("missing file exit %d", code)
		}
	})
}

// TestParseAndMergeMin covers the parse path the documents come from,
// including the min-across-count merge and CPU-suffix stripping.
func TestParseAndMergeMin(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "bench.txt")
	raw := `goos: linux
BenchmarkCycleLoop-8   	   20000	      5000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCycleLoop-8   	   20000	      4500 ns/op	      16 B/op	       1 allocs/op
BenchmarkExtra-8       	       1	       100 ns/op	       42.0 cache-hits
some unrelated line
`
	if err := os.WriteFile(tmp, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := doc.Benchmarks["BenchmarkCycleLoop"]
	if !ok {
		t.Fatalf("CPU suffix not stripped: %v", doc.Benchmarks)
	}
	if m.NsPerOp != 4500 || m.BytesPerOp != 0 || m.AllocsPerOp != 0 {
		t.Fatalf("min-merge wrong: %+v", m)
	}
	if doc.Benchmarks["BenchmarkExtra"].Extra["cache-hits"] != 42 {
		t.Fatalf("extra metric lost: %+v", doc.Benchmarks["BenchmarkExtra"])
	}
}

// TestSpreadRecordedAndPrinted checks that every metric keeps its runs'
// n, mean and standard deviation beside the minimum, that -compare prints
// them, and that the gate still judges the minimum alone: a candidate
// whose mean is far worse but whose minimum is inside the threshold
// passes.
func TestSpreadRecordedAndPrinted(t *testing.T) {
	dir := t.TempDir()
	raw := writeDoc(t, dir, "bench.txt", `BenchmarkCycleLoop-8   20000   1000 ns/op   0 B/op   0 allocs/op
BenchmarkCycleLoop-8   20000   1200 ns/op   0 B/op   0 allocs/op
BenchmarkCycleLoop-8   20000   1400 ns/op   0 B/op   0 allocs/op
BenchmarkOnce-8            1    100 ns/op   42.0 cache-hits
`)
	f, err := os.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Benchmarks["BenchmarkCycleLoop"]
	if m.NsPerOp != 1000 {
		t.Fatalf("minimum %v, want 1000", m.NsPerOp)
	}
	if sp := m.Spread["ns/op"]; sp.N != 3 || sp.Mean != 1200 || math.Abs(sp.Std-200) > 1e-9 {
		t.Fatalf("ns/op spread %+v, want n=3 mean=1200 std=200", sp)
	}
	if sp := m.Spread["allocs/op"]; sp.N != 3 || sp.Mean != 0 || sp.Std != 0 {
		t.Fatalf("allocs/op spread %+v", sp)
	}
	if sp := doc.Benchmarks["BenchmarkOnce"].Spread["cache-hits"]; sp.N != 1 || sp.Mean != 42 || sp.Std != 0 {
		t.Fatalf("single-run custom spread %+v", sp)
	}

	oldPath := writeDoc(t, dir, "old.json", `{"benchmarks":{
		"BenchmarkCycleLoop": {"ns_per_op": 1000, "bytes_per_op": 0, "allocs_per_op": 0,
			"spread": {"ns/op": {"n": 3, "mean": 1010, "std": 10}}},
		"BenchmarkLegacy": {"ns_per_op": 50, "bytes_per_op": 0, "allocs_per_op": 0}
	}}`)
	newPath := writeDoc(t, dir, "new.json", `{"benchmarks":{
		"BenchmarkCycleLoop": {"ns_per_op": 1040, "bytes_per_op": 0, "allocs_per_op": 0,
			"spread": {"ns/op": {"n": 3, "mean": 1500, "std": 400}}},
		"BenchmarkLegacy": {"ns_per_op": 50, "bytes_per_op": 0, "allocs_per_op": 0}
	}}`)
	var out strings.Builder
	if code := runCompare(&out, oldPath, newPath, 5); code != 0 {
		t.Fatalf("a minimum inside the threshold failed the gate (exit %d):\n%s", code, out.String())
	}
	report := out.String()
	for _, want := range []string{"old mean 1010 ± 10 (n=3)", "new mean 1500 ± 400 (n=3)"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "BenchmarkLegacy") && strings.Contains(line, "mean") {
			t.Errorf("a row recorded without spread printed one: %q", line)
		}
	}
}
