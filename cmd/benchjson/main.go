// Command benchjson converts `go test -bench` output into a stable,
// machine-readable JSON document, and compares two such documents for the
// CI benchmark-regression gate.
//
// Parse mode (default) reads benchmark text from stdin and writes JSON:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson -o BENCH_core.json
//
// Compare mode exits non-zero when a benchmark present in both documents
// regressed beyond the threshold on ns/op or allocs/op:
//
//	go run ./cmd/benchjson -compare -old BENCH_main.json -new BENCH_pr.json -threshold 5
//
// When a benchmark ran multiple times (go test -count=N), the minimum of
// each metric is kept: simulation workloads are deterministic, so the
// minimum is the least-noisy estimate of the true cost, and the gate
// judges it. Beside each minimum the document records the runs' n, mean
// and standard deviation, and -compare prints them, so a reader can tell a
// row that moved by its noise alone from one that regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded measurements. NsPerOp, BytesPerOp
// and AllocsPerOp come from -benchmem; Extra holds any custom
// b.ReportMetric units (e.g. cache-hits).
type Metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	// Spread summarises every run of each metric, keyed by its unit
	// ("ns/op", "B/op", "allocs/op" or a custom unit).
	Spread map[string]Spread `json:"spread,omitempty"`
}

// Spread is the n, mean and sample standard deviation (0 for one run) of a
// metric's runs.
type Spread struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// spreadOf summarises samples.
func spreadOf(samples []float64) Spread {
	sp := Spread{N: len(samples)}
	for _, v := range samples {
		sp.Mean += v
	}
	sp.Mean /= float64(sp.N)
	if sp.N > 1 {
		var ss float64
		for _, v := range samples {
			ss += (v - sp.Mean) * (v - sp.Mean)
		}
		sp.Std = math.Sqrt(ss / float64(sp.N-1))
	}
	return sp
}

// Document is the BENCH_*.json schema: benchmark name (with the CPU-count
// suffix stripped) to metrics.
type Document struct {
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("o", "", "parse mode: output file (default stdout)")
		compare   = flag.Bool("compare", false, "compare two documents instead of parsing")
		oldPath   = flag.String("old", "", "compare mode: baseline document")
		newPath   = flag.String("new", "", "compare mode: candidate document")
		threshold = flag.Float64("threshold", 5, "compare mode: allowed regression in percent")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(os.Stdout, *oldPath, *newPath, *threshold))
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(2)
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}

// stripCPUSuffix removes go test's trailing -<GOMAXPROCS> from a benchmark
// name so documents from machines with different core counts compare.
func stripCPUSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func parse(f *os.File) (*Document, error) {
	doc := &Document{Benchmarks: map[string]Metrics{}}
	samples := map[string]map[string][]float64{} // name -> unit -> runs
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark lines are: Name N <value> <unit> [<value> <unit> ...]
		if len(fields) < 4 {
			continue
		}
		name := stripCPUSuffix(fields[0])
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		m := Metrics{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
			switch unit {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			default:
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[unit] = v
			}
		}
		if prev, ok := doc.Benchmarks[name]; ok {
			m = mergeMin(prev, m)
		}
		doc.Benchmarks[name] = m
	}
	for name, units := range samples {
		m := doc.Benchmarks[name]
		m.Spread = make(map[string]Spread, len(units))
		for unit, vs := range units {
			m.Spread[unit] = spreadOf(vs)
		}
		doc.Benchmarks[name] = m
	}
	return doc, sc.Err()
}

// mergeMin keeps the minimum of each metric across repeated runs
// (-1 marks a metric the run did not report).
func mergeMin(a, b Metrics) Metrics {
	minOf := func(x, y float64) float64 {
		if x < 0 {
			return y
		}
		if y < 0 || x < y {
			return x
		}
		return y
	}
	out := Metrics{
		NsPerOp:     minOf(a.NsPerOp, b.NsPerOp),
		BytesPerOp:  minOf(a.BytesPerOp, b.BytesPerOp),
		AllocsPerOp: minOf(a.AllocsPerOp, b.AllocsPerOp),
	}
	for _, src := range []map[string]float64{a.Extra, b.Extra} {
		for k, v := range src {
			if out.Extra == nil {
				out.Extra = map[string]float64{}
			}
			if cur, ok := out.Extra[k]; !ok || v < cur {
				out.Extra[k] = v
			}
		}
	}
	return out
}

func load(path string) (*Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runCompare prints a per-benchmark delta table to w and returns 1 when
// any shared benchmark regressed beyond the threshold on ns/op or
// allocs/op. New or vanished benchmarks are reported but never fail the
// gate (the gate must not block adding or retiring benchmarks).
func runCompare(w io.Writer, oldPath, newPath string, threshold float64) int {
	oldDoc, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	names := make([]string, 0, len(newDoc.Benchmarks))
	for name := range newDoc.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		nw := newDoc.Benchmarks[name]
		od, ok := oldDoc.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "NEW    %-50s %12.0f ns/op %10.0f allocs/op%s\n",
				name, nw.NsPerOp, nw.AllocsPerOp, fmtSpread("new", nw.Spread["ns/op"]))
			continue
		}
		nsBad, nsDelta := regressed(od.NsPerOp, nw.NsPerOp, threshold)
		alBad, alDelta := regressed(od.AllocsPerOp, nw.AllocsPerOp, threshold)
		status := "ok    "
		if nsBad || alBad {
			status = "REGRES"
			failed = true
		}
		fmt.Fprintf(w, "%s %-50s ns/op %12.0f -> %12.0f (%s)  allocs/op %10.0f -> %10.0f (%s)%s%s\n",
			status, name, od.NsPerOp, nw.NsPerOp, fmtDelta(nsDelta), od.AllocsPerOp, nw.AllocsPerOp, fmtDelta(alDelta),
			fmtSpread("old", od.Spread["ns/op"]), fmtSpread("new", nw.Spread["ns/op"]))
	}
	gone := make([]string, 0)
	for name := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "GONE   %s\n", name)
	}
	if failed {
		fmt.Fprintf(w, "\nbenchmark regression beyond %.1f%% threshold\n", threshold)
		return 1
	}
	fmt.Fprintf(w, "\nno regressions beyond %.1f%% threshold\n", threshold)
	return 0
}

// fmtSpread renders a document's ns/op spread after a label, or nothing
// for a document recorded without one.
func fmtSpread(label string, sp Spread) string {
	if sp.N == 0 {
		return ""
	}
	return fmt.Sprintf("  %s mean %.0f ± %.0f (n=%d)", label, sp.Mean, sp.Std, sp.N)
}

// fmtDelta renders a percent delta; NaN marks a delta that has no
// percentage form (a zero or degenerate baseline).
func fmtDelta(delta float64) string {
	if math.IsNaN(delta) {
		return "  n/a "
	}
	return fmt.Sprintf("%+6.1f%%", delta)
}

// regressed reports whether cur is worse than base by more than threshold
// percent, and the percent delta (NaN when no percentage exists). A zero
// baseline (the zero-allocation steady state) regresses on any increase:
// there is no percentage of zero. Degenerate rows — absent metrics
// (recorded as -1), zero-ns parses, or non-finite values from a corrupt
// document — never produce NaN/Inf percentages and never fail the gate on
// arithmetic artifacts alone.
func regressed(base, cur float64, threshold float64) (bool, float64) {
	if base < 0 || cur < 0 {
		return false, math.NaN() // metric absent on one side
	}
	if math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(cur) || math.IsInf(cur, 0) {
		return false, math.NaN() // corrupt document; never gate on it
	}
	if base == 0 {
		return cur > 0, math.NaN()
	}
	delta := (cur - base) / base * 100
	return delta > threshold, delta
}
