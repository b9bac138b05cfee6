// Package paper is the reproducible paper-artifact pipeline: it executes a
// declarative experiment grid (scripts/paper/experiments.json) through
// bench.RunExperiment — or against a running srlserved via /v1/sweep —
// into a paper_runs/<stamp>/ directory of validated CSVs, grouped summary
// statistics, Markdown and LaTeX tables, SVG plots and a report.md index,
// plus a manifest recording exactly what produced them.
//
// The pipeline is the reproduction's deliverable ("here is the paper,
// regenerated in one command") and doubles as a regression oracle: every
// CSV is validated against the experiment's declared shape
// (bench.Shape), repeats are byte-compared (the simulator is
// deterministic), and headline metrics are asserted against checked-in
// tolerance bands (scripts/paper/expectations.json).
package paper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"srlproc/internal/bench"
)

// Knobs are the per-experiment simulation overrides a grid entry (or a
// profile) can set — the same knobs cmd/experiments exposes as flags.
// Zero values mean "inherit"; NoCache is a pointer so a profile can
// explicitly switch it off again.
type Knobs struct {
	// Uops overrides measured micro-ops per point (cmd flag -uops).
	Uops uint64 `json:"uops,omitempty"`
	// Warmup overrides warmup micro-ops per point (-warmup).
	Warmup uint64 `json:"warmup,omitempty"`
	// Seed overrides the workload seed (-seed).
	Seed uint64 `json:"seed,omitempty"`
	// NoCache disables result memoization for the experiment, forcing a
	// fresh simulation of every point (-nocache).
	NoCache *bool `json:"nocache,omitempty"`
}

// merge applies the non-zero fields of over on top of k.
func (k Knobs) merge(over Knobs) Knobs {
	if over.Uops != 0 {
		k.Uops = over.Uops
	}
	if over.Warmup != 0 {
		k.Warmup = over.Warmup
	}
	if over.Seed != 0 {
		k.Seed = over.Seed
	}
	if over.NoCache != nil {
		k.NoCache = over.NoCache
	}
	return k
}

// apply folds the knobs into options.
func (k Knobs) apply(o bench.Options) bench.Options {
	if k.Uops != 0 {
		o.RunUops = k.Uops
	}
	if k.Warmup != 0 {
		o.WarmupUops = k.Warmup
	}
	if k.Seed != 0 {
		o.Seed = k.Seed
	}
	if k.NoCache != nil {
		o.NoCache = *k.NoCache
	}
	return o
}

// GridExperiment is one experiment entry of the grid.
type GridExperiment struct {
	// ID names the experiment; it resolves through bench.ParseExperimentID,
	// so aliases like "figure2" work.
	ID string `json:"id"`
	// Repeats overrides the grid-level repeat count for this experiment.
	Repeats int `json:"repeats,omitempty"`
	// Overrides are experiment-local knob overrides, applied after the
	// grid's common knobs and the active profile's.
	Overrides Knobs `json:"overrides,omitempty"`
}

// Grid is the declarative experiment grid scripts/paper/experiments.json
// describes: which experiments to run, how many independent repeats, and
// the knob layers (common → profile → per-experiment) that build each
// run's bench.Options.
type Grid struct {
	// Repeats is the default number of independent repeats per experiment
	// (at least 1). The simulator is deterministic, so repeats must agree
	// byte-for-byte — that agreement is exactly what `-check` asserts.
	Repeats int `json:"repeats"`
	// Common knobs apply to every experiment before profile overrides.
	Common Knobs `json:"common,omitempty"`
	// Profiles are named knob sets selected with -profile; "quick" is the
	// CI smoke scale. The implicit "full" profile applies no overrides.
	Profiles map[string]Knobs `json:"profiles,omitempty"`
	// Experiments lists the grid entries in run (and report) order.
	Experiments []GridExperiment `json:"experiments"`
}

// FullProfile is the implicit profile running the grid at its common
// scale, with no profile overrides.
const FullProfile = "full"

// MaxRepeats bounds every repeat count: the grid's, an experiment's and
// Plan's override (paperrepro -repeats). Plan builds one Unit per repeat
// before anything runs, so an unbounded count could ask for more memory
// than the host has; seed ensembles plan 5.
const MaxRepeats = 100

// Unit is one schedulable cell of the grid: an experiment, a repeat index
// (1-based) and the fully-resolved options it runs under.
type Unit struct {
	ID      bench.ExperimentID
	Repeat  int
	Repeats int
	Options bench.Options
}

// Key is the unit's file-naming key, e.g. "fig6_r01".
func (u Unit) Key() string { return fmt.Sprintf("%s_r%02d", u.ID, u.Repeat) }

// LoadGrid reads and validates a grid file, returning the grid and the
// raw bytes that hash into the run manifest's config fingerprint.
func LoadGrid(path string) (*Grid, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: read grid: %w", err)
	}
	g, err := ParseGrid(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: %s: %w", path, err)
	}
	return g, raw, nil
}

// ParseGrid parses and validates grid bytes.
func ParseGrid(raw []byte) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("parse grid: %w", err)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

func (g *Grid) validate() error {
	if g.Repeats < 1 {
		return fmt.Errorf("grid: repeats must be >= 1 (got %d)", g.Repeats)
	}
	if g.Repeats > MaxRepeats {
		return fmt.Errorf("grid: repeats must be at most %d (got %d)", MaxRepeats, g.Repeats)
	}
	if len(g.Experiments) == 0 {
		return fmt.Errorf("grid: no experiments")
	}
	seen := make(map[bench.ExperimentID]string)
	for _, e := range g.Experiments {
		id, err := bench.ParseExperimentID(e.ID)
		if err != nil {
			return fmt.Errorf("grid: %w", err)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("grid: duplicate experiment %q (also listed as %q)", e.ID, prev)
		}
		seen[id] = e.ID
		if e.Repeats < 0 {
			return fmt.Errorf("grid: %s: negative repeats", e.ID)
		}
		if e.Repeats > MaxRepeats {
			return fmt.Errorf("grid: %s: repeats must be at most %d (got %d)", e.ID, MaxRepeats, e.Repeats)
		}
	}
	if _, ok := g.Profiles[FullProfile]; ok {
		return fmt.Errorf("grid: profile %q is implicit and cannot be redefined", FullProfile)
	}
	return nil
}

// ProfileNames lists the grid's selectable profiles: the implicit full
// profile plus the declared ones, sorted.
func (g *Grid) ProfileNames() []string {
	names := []string{FullProfile}
	for name := range g.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Plan resolves the grid into its unit list for one profile: every
// experiment × repeat with fully-merged options, in grid order. only, when
// non-empty, restricts the plan to the listed experiments (which must all
// be in the grid); repeats, when positive, overrides every repeat count
// and may be at most MaxRepeats.
func (g *Grid) Plan(profile string, only []bench.ExperimentID, repeats int) ([]Unit, error) {
	if repeats > MaxRepeats {
		return nil, fmt.Errorf("paper: repeats must be at most %d (got %d)", MaxRepeats, repeats)
	}
	prof, ok := g.Profiles[profile]
	if !ok && profile != FullProfile {
		return nil, fmt.Errorf("paper: unknown profile %q (have: %s)", profile, strings.Join(g.ProfileNames(), " "))
	}
	want := make(map[bench.ExperimentID]bool, len(only))
	for _, id := range only {
		want[id] = true
	}
	var units []Unit
	for _, e := range g.Experiments {
		id, err := bench.ParseExperimentID(e.ID)
		if err != nil {
			return nil, err
		}
		if len(only) > 0 && !want[id] {
			continue
		}
		delete(want, id)
		n := g.Repeats
		if e.Repeats > 0 {
			n = e.Repeats
		}
		if repeats > 0 {
			n = repeats
		}
		knobs := g.Common.merge(prof).merge(e.Overrides)
		o := knobs.apply(bench.DefaultOptions())
		for rep := 1; rep <= n; rep++ {
			units = append(units, Unit{ID: id, Repeat: rep, Repeats: n, Options: o})
		}
	}
	for id := range want {
		return nil, fmt.Errorf("paper: experiment %s is not in the grid", id)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("paper: empty plan")
	}
	return units, nil
}

// ConfigHash fingerprints a (grid bytes, profile) pair. It keys the
// resumable per-experiment state: a run directory produced under one hash
// refuses to resume under another, so editing the grid mid-run restarts
// cleanly instead of mixing schemas.
func ConfigHash(gridBytes []byte, profile string) string {
	h := sha256.New()
	h.Write(gridBytes)
	h.Write([]byte{0})
	h.Write([]byte(profile))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
