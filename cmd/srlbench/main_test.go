package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smokeOpts sizes a run of one round at smoke scale inside a temp dir.
func smokeOpts(t *testing.T) *opts {
	dir := t.TempDir()
	return &opts{root: filepath.Join("..", ".."), seed: 1, budget: time.Nanosecond, smoke: true,
		traceDir: filepath.Join(dir, "trace"), workDir: filepath.Join(dir, "work"),
		expected: filepath.Join("testdata", "expected.json")}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, srlbench runs %v", names, workloadNames())
	}
	if !slices.Equal(d.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n %v\nsrlbench emits\n %v", d.EndToEnd, endToEnd)
	}
	if !slices.Equal(d.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n %v\nsrlbench emits\n %v", d.PerLayer, perLayer)
	}
}

// checkResult requires a correct run that emits exactly the declared
// metrics, each finite and with its declared unit.
func checkResult(t *testing.T, res result, defs []metric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: got %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced and
// then traced, and checks the results, the trace files and that both runs
// produce the digest testdata/expected.json holds.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOpts(t)
			plain, err := measure(ctx, w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain.res, endToEnd)
			traced, err := traceMeasure(ctx, w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced.res, perLayer)
			if plain.digest != traced.digest {
				t.Errorf("digest changed between runs: %s, then %s", plain.digest, traced.digest)
			}
			if v := traced.res.Metrics["core.step.cum_frac"].Value; v <= 0 || v > 1 {
				t.Errorf("core.step.cum_frac = %v, want a share of the profile", v)
			}
			var spans struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				} `json:"traceEvents"`
			}
			b, err := os.ReadFile(filepath.Join(o.traceDir, w.name+".spans.json"))
			if err == nil {
				err = json.Unmarshal(b, &spans)
			}
			if err != nil || len(spans.TraceEvents) == 0 || spans.TraceEvents[0].Name != w.name {
				t.Errorf("spans: %v, %d events", err, len(spans.TraceEvents))
			}
			for _, ext := range []string{".cpu.pprof", ".layers.json"} {
				if _, err := os.Stat(filepath.Join(o.traceDir, w.name+ext)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestInjectedErrorsFail has the service answer every seventh simulate
// request with a 500: each must count as a failed op.
func TestInjectedErrorsFail(t *testing.T) {
	o := smokeOpts(t)
	var n atomic.Int64
	o.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/simulate" && n.Add(1)%7 == 0 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	w, _ := findWorkload("service")
	oc, err := measure(context.Background(), w, o)
	if err != nil {
		t.Fatal(err)
	}
	if oc.res.Correct || oc.res.Failed == 0 {
		t.Errorf("correct=%v failed=%d after injected 500s", oc.res.Correct, oc.res.Failed)
	}
}

func TestWrongExpectedDigestFails(t *testing.T) {
	o := smokeOpts(t)
	o.expected = filepath.Join(t.TempDir(), "expected.json")
	if err := writeJSONFile(o.expected, map[string]string{"deep-memory/smoke": strings.Repeat("0", 64)}); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("deep-memory")
	oc, err := measure(context.Background(), w, o)
	if err != nil {
		t.Fatal(err)
	}
	if oc.res.Correct || oc.res.Failed != 1 {
		t.Errorf("correct=%v failed=%d with a wrong expected digest", oc.res.Correct, oc.res.Failed)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-workload", "service", "-trace", "2"},
		{"-workload", "service", "-seconds", "0"},
		{"-compare", "only-one.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, errb.String())
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 7, 10}, [3]float64{2, 4, 7}},
	} {
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.data, p); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.data, p, got, c.want[i])
			}
		}
	}
}

func TestJudge(t *testing.T) {
	mk := func(vals ...float64) *spread {
		s := slices.Clone(vals)
		slices.Sort(s)
		return &spread{Median: quantile(s, .5), Q1: quantile(s, .25), Q3: quantile(s, .75), Values: vals}
	}
	base := mk(10, 10.1, 10.2, 9.9, 10)
	for _, c := range []struct {
		name   string
		head   *spread
		better string
		want   string
	}{
		{"same", mk(10, 10.1, 9.9, 10.2, 10), "lower", "ok"},
		{"slower", mk(12, 12.1, 11.9, 12.2, 12), "lower", "regressed"},
		{"lower throughput", mk(8, 8.1, 7.9, 8.2, 8), "higher", "regressed"},
		{"noisy", mk(8, 12, 10, 14, 6), "lower", "unresolved"},
		{"noisy but all faster", mk(5, 9, 6, 8, 2), "lower", "ok"},
	} {
		if got, _, _ := judge(base, c.head, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for f, want := range map[string]string{
		"srlproc/internal/lsq.(*SRL).Push":             "srlproc/internal/lsq",
		"srlproc/internal/heapq.(*Heap[...]).Push":     "srlproc/internal/heapq",
		"srlproc/internal/core.(*Core).issue.func1":    "srlproc/internal/core",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "internal/runtime/maps",
		"srlproc/internal/cachesim.NewHierarchy[...]":  "srlproc/internal/cachesim",
	} {
		if got := packageOf(f); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", f, got, want)
		}
	}
}
