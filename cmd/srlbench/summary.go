package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// summary is what -repeat writes and -compare reads: for every workload,
// each metric's median, quartiles, extremes and sample count over the runs.
type summary struct {
	Workloads map[string]*runSummary `json:"workloads"`
}

type runSummary struct {
	Runs      int                `json:"runs"`
	Seeds     []uint64           `json:"seeds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*spread `json:"metrics"`
}

// spread summarises one metric over runs. Its quartiles are those of
// Python's statistics.quantiles(values, n=4).
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// share is the distance between the quartiles as a share of the median.
func (s *spread) share() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

func summarizeRuns(results []result, seeds []uint64) *runSummary {
	rs := &runSummary{Runs: len(results), Seeds: seeds, Correct: true, Metrics: map[string]*spread{}}
	for _, r := range results {
		rs.Correct = rs.Correct && r.Correct
		rs.Attempted += r.Attempted
		rs.Failed += r.Failed
		for name, v := range r.Metrics {
			sp := rs.Metrics[name]
			if sp == nil {
				sp = &spread{Unit: v.Unit}
				rs.Metrics[name] = sp
			}
			sp.Values = append(sp.Values, v.Value)
		}
	}
	for _, sp := range rs.Metrics {
		s := slices.Clone(sp.Values)
		slices.Sort(s)
		sp.N, sp.Min, sp.Max = len(s), s[0], s[len(s)-1]
		sp.Median, sp.Q1, sp.Q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
	}
	return rs
}

func printSummary(sum *summary, w io.Writer) {
	fmt.Fprintf(w, "%-12s %-40s %12s %12s %12s %12s %12s %3s %9s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "n", "iqr/med")
	for _, name := range sortedKeys(sum.Workloads) {
		rs := sum.Workloads[name]
		for _, m := range sortedKeys(rs.Metrics) {
			sp := rs.Metrics[m]
			fmt.Fprintf(w, "%-12s %-40s %12.6g %12.6g %12.6g %12.6g %12.6g %3d %8.2f%%\n",
				name, m+" ("+sp.Unit+")", sp.Median, sp.Q1, sp.Q3, sp.Min, sp.Max, sp.N, 100*sp.share())
		}
		fmt.Fprintf(w, "%-12s %d runs, correct=%v, %d failed of %d attempted\n", name, rs.Runs, rs.Correct, rs.Failed, rs.Attempted)
	}
}

// declaration is the part of BENCHMARK.json that -compare needs.
type declaration struct {
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare applies BENCHMARK.json's bounds to two -repeat summaries and
// prints one row per workload and end-to-end metric. A metric regressed
// when head's median is worse than base's by more than its bound; it is
// unresolved when either side's spread exceeds the bound, unless every head
// run beats every base run. Anything but "ok" exits 1.
func runCompare(declPath, basePath, headPath string, stdout, stderr io.Writer) int {
	var decl declaration
	var base, head summary
	for path, v := range map[string]any{declPath: &decl, basePath: &base, headPath: &head} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "srlbench: %v\n", err)
			return 2
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-12s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	for _, name := range sortedKeys(base.Workloads) {
		b, h := base.Workloads[name], head.Workloads[name]
		if h == nil {
			fmt.Fprintf(stdout, "%-12s missing from %s\n", name, headPath)
			bad++
			continue
		}
		if !b.Correct || !h.Correct {
			fmt.Fprintf(stdout, "%-12s %-16s %12v %12v %8s %8s %6s  incorrect\n", name, "correct", b.Correct, h.Correct, "", "", "")
			bad++
		}
		for _, d := range decl.EndToEnd {
			bs, hs := b.Metrics[d.Name], h.Metrics[d.Name]
			if bs == nil || hs == nil {
				fmt.Fprintf(stdout, "%-12s %-16s missing\n", name, d.Name)
				bad++
				continue
			}
			verdict, change, sp := judge(bs, hs, d.Better, d.Bound)
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-16s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, d.Name, bs.Median, hs.Median, 100*change, 100*sp, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) not ok\n", bad)
		return 1
	}
	return 0
}

// judge compares head with base for one metric. change is the signed
// relative change of the median; sp is the wider of the two spreads.
func judge(base, head *spread, better string, bound float64) (verdict string, change, sp float64) {
	change = ratio(head.Median-base.Median, math.Abs(base.Median))
	worse := change
	if better == "higher" {
		worse = -change
	}
	sp = max(base.share(), head.share())
	allBetter := slices.Max(head.Values) < slices.Min(base.Values)
	if better == "higher" {
		allBetter = slices.Min(head.Values) > slices.Max(base.Values)
	}
	switch {
	case sp > bound && !allBetter:
		return "unresolved", change, sp
	case worse > bound:
		return "regressed", change, sp
	}
	return "ok", change, sp
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
