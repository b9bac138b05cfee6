package paper

import (
	"os"
	"testing"
)

// FuzzGridConfig sends arbitrary bytes through ParseGrid and, for every
// grid it accepts, plans every profile with a fuzzed repeat override (what
// paperrepro -repeats passes). No input may panic or plan more than
// MaxRepeats units per experiment: Plan builds its whole unit list before
// anything runs, so an unbounded repeat count exhausts memory there. A
// valid grid must plan every profile it names unless the override is above
// the bound, and every unit must carry a repeat index within its count.
func FuzzGridConfig(f *testing.F) {
	if raw, err := os.ReadFile("../../scripts/paper/experiments.json"); err == nil {
		f.Add(raw, 0)
		f.Add(raw, 3)
	}
	f.Add([]byte(testGrid), 0)
	f.Add([]byte(testGrid), MaxRepeats+1)
	f.Add([]byte(`{"repeats":101,"experiments":[{"id":"fig6"}]}`), 0)
	f.Add([]byte(`{"repeats":1,"experiments":[{"id":"fig6","repeats":101}]}`), 0)
	f.Add([]byte(`{"repeats":1,"profiles":{"quick":{"uops":1}},"experiments":[{"id":"figure6"},{"id":"table3"}]}`), -1)
	f.Fuzz(func(t *testing.T, raw []byte, repeats int) {
		g, err := ParseGrid(raw)
		if err != nil {
			return
		}
		for _, name := range g.ProfileNames() {
			units, err := g.Plan(name, nil, repeats)
			if repeats > MaxRepeats {
				if err == nil {
					t.Fatalf("profile %s: Plan accepted %d repeats, above the bound %d", name, repeats, MaxRepeats)
				}
				continue
			}
			if err != nil {
				t.Fatalf("profile %s of a valid grid: Plan: %v", name, err)
			}
			if len(units) < len(g.Experiments) || len(units) > len(g.Experiments)*MaxRepeats {
				t.Fatalf("profile %s: %d units for %d experiments", name, len(units), len(g.Experiments))
			}
			for _, u := range units {
				if u.Repeats < 1 || u.Repeats > MaxRepeats || u.Repeat < 1 || u.Repeat > u.Repeats {
					t.Fatalf("profile %s: unit %s is repeat %d of %d", name, u.Key(), u.Repeat, u.Repeats)
				}
			}
		}
	})
}
