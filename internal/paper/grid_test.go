package paper

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"srlproc/internal/bench"
)

const testGrid = `{
  "repeats": 2,
  "common": { "seed": 7 },
  "profiles": {
    "quick": { "uops": 40000, "warmup": 8000 },
    "stress": { "nocache": true }
  },
  "experiments": [
    { "id": "fig6" },
    { "id": "table3", "repeats": 3, "overrides": { "seed": 11 } },
    { "id": "latency", "overrides": { "nocache": false } }
  ]
}`

func mustParse(t *testing.T, src string) *Grid {
	t.Helper()
	g, err := ParseGrid([]byte(src))
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	return g
}

func TestParseGridErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no repeats", `{"experiments":[{"id":"fig6"}]}`, "repeats must be >= 1"},
		{"grid repeats above the bound", `{"repeats":101,"experiments":[{"id":"fig6"}]}`, "at most 100"},
		{"experiment repeats above the bound", `{"repeats":1,"experiments":[{"id":"fig6","repeats":101}]}`, "at most 100"},
		{"no experiments", `{"repeats":1}`, "no experiments"},
		{"unknown field", `{"repeats":1,"experiments":[{"id":"fig6"}],"bogus":1}`, "bogus"},
		{"unknown knob", `{"repeats":1,"common":{"cycles":5},"experiments":[{"id":"fig6"}]}`, "cycles"},
		{"removed noskip knob", `{"repeats":1,"common":{"noskip":true},"experiments":[{"id":"fig6"}]}`, "noskip"},
		{"bad id", `{"repeats":1,"experiments":[{"id":"fig99"}]}`, "fig99"},
		{"duplicate id", `{"repeats":1,"experiments":[{"id":"fig6"},{"id":"figure6"}]}`, "duplicate"},
		{"redefined full", `{"repeats":1,"profiles":{"full":{}},"experiments":[{"id":"fig6"}]}`, "implicit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestPlanKnobLayering(t *testing.T) {
	g := mustParse(t, testGrid)

	units, err := g.Plan("quick", nil, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// fig6 ×2, table3 ×3, latency ×2 in grid order.
	var keys []string
	for _, u := range units {
		keys = append(keys, u.Key())
	}
	want := []string{"fig6_r01", "fig6_r02", "table3_r01", "table3_r02", "table3_r03", "latency_r01", "latency_r02"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("plan keys = %v, want %v", keys, want)
	}

	fig6 := units[0].Options
	if fig6.RunUops != 40000 || fig6.WarmupUops != 8000 {
		t.Errorf("quick profile scale not applied: run=%d warmup=%d", fig6.RunUops, fig6.WarmupUops)
	}
	if fig6.Seed != 7 {
		t.Errorf("common seed not applied: %d", fig6.Seed)
	}
	if table3 := units[2].Options; table3.Seed != 11 {
		t.Errorf("per-experiment override lost: seed=%d", table3.Seed)
	}

	// The stress profile flips the boolean knob via its pointer.
	stress, err := g.Plan("stress", nil, 0)
	if err != nil {
		t.Fatalf("Plan stress: %v", err)
	}
	if o := stress[0].Options; !o.NoCache {
		t.Errorf("stress profile boolean not applied: %+v", o)
	}
	// An experiment's explicit false switches the profile's true off again.
	if o := stress[len(stress)-1].Options; o.NoCache {
		t.Errorf("latency override nocache=false lost under the stress profile: %+v", o)
	}

	// The full profile keeps the default scale.
	full, err := g.Plan(FullProfile, nil, 0)
	if err != nil {
		t.Fatalf("Plan full: %v", err)
	}
	def := bench.DefaultOptions()
	if o := full[0].Options; o.RunUops != def.RunUops || o.WarmupUops != def.WarmupUops {
		t.Errorf("full profile changed scale: %+v", o)
	}
}

func TestPlanOnlyAndRepeats(t *testing.T) {
	g := mustParse(t, testGrid)

	units, err := g.Plan("full", []bench.ExperimentID{bench.Table3}, 1)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(units) != 1 || units[0].Key() != "table3_r01" {
		t.Fatalf("only+repeats plan = %v", units)
	}

	if _, err := g.Plan("full", []bench.ExperimentID{bench.Fig2}, 0); err == nil {
		t.Fatal("planning an experiment outside the grid should fail")
	}
	if _, err := g.Plan("nope", nil, 0); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("unknown profile error = %v", err)
	}

	// Every repeat count is bounded: the grid's and an experiment's at
	// parse time (TestParseGridErrors), the override here.
	if units, err := g.Plan("full", []bench.ExperimentID{bench.Table3}, MaxRepeats); err != nil || len(units) != MaxRepeats {
		t.Fatalf("Plan at the repeat bound: %d units, %v", len(units), err)
	}
	if _, err := g.Plan("full", nil, MaxRepeats+1); err == nil || !strings.Contains(err.Error(), "at most 100") {
		t.Fatalf("Plan above the repeat bound: error %v", err)
	}
	if _, err := ParseGrid([]byte(`{"repeats":100,"experiments":[{"id":"fig6","repeats":100}]}`)); err != nil {
		t.Fatalf("grid at the repeat bound rejected: %v", err)
	}
}

func TestConfigHash(t *testing.T) {
	a := ConfigHash([]byte(testGrid), "full")
	if b := ConfigHash([]byte(testGrid), "quick"); a == b {
		t.Error("hash ignores profile")
	}
	if b := ConfigHash([]byte(testGrid+" "), "full"); a == b {
		t.Error("hash ignores grid bytes")
	}
	if b := ConfigHash([]byte(testGrid), "full"); a != b {
		t.Error("hash not stable")
	}
	if len(a) != 16 {
		t.Errorf("hash length %d, want 16", len(a))
	}
}

// TestQuickAndFullProfilesSameStructure pins the shipped grid: the quick
// profile must enumerate exactly the experiments, repeats, points and CSV
// schemas of the full profile — only the simulation scale differs. That
// equivalence is what lets the CI smoke run stand in for the nightly.
func TestQuickAndFullProfilesSameStructure(t *testing.T) {
	g, _, err := LoadGrid(filepath.Join("..", "..", "scripts", "paper", "experiments.json"))
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	quick, err := g.Plan("quick", nil, 0)
	if err != nil {
		t.Fatalf("Plan quick: %v", err)
	}
	full, err := g.Plan(FullProfile, nil, 0)
	if err != nil {
		t.Fatalf("Plan full: %v", err)
	}
	if len(quick) != len(full) {
		t.Fatalf("quick has %d units, full %d", len(quick), len(full))
	}
	ids := map[bench.ExperimentID]bool{}
	for i := range quick {
		q, f := quick[i], full[i]
		if q.ID != f.ID || q.Repeat != f.Repeat || q.Repeats != f.Repeats {
			t.Fatalf("unit %d: quick %s vs full %s", i, q.Key(), f.Key())
		}
		ids[q.ID] = true
		qs, err := bench.Shape(q.ID, q.Options)
		if err != nil {
			t.Fatalf("Shape quick %s: %v", q.Key(), err)
		}
		fs, err := bench.Shape(f.ID, f.Options)
		if err != nil {
			t.Fatalf("Shape full %s: %v", f.Key(), err)
		}
		if !reflect.DeepEqual(qs, fs) {
			t.Errorf("%s: quick shape %+v != full shape %+v", q.ID, qs, fs)
		}
	}
	// The shipped grid covers every runnable experiment.
	for _, id := range bench.AllExperiments() {
		if !ids[id] {
			t.Errorf("shipped grid is missing experiment %s", id)
		}
	}
}
