package main

import (
	"slices"
	"strings"
	"testing"

	"srlproc/internal/bench"
)

// TestOnlyHelpNamesRoundTrip pins the -only help text to reality: every
// name it advertises must either parse back to the experiment it names or
// be a declared CLI-only section. A renamed or added experiment that
// misses the help text fails here, not in a user's shell.
func TestOnlyHelpNamesRoundTrip(t *testing.T) {
	help := onlyHelp()
	_, list, ok := strings.Cut(help, ": ")
	if !ok {
		t.Fatalf("help text %q has no name list", help)
	}
	sections := map[string]bool{}
	for _, s := range cliOnlySections {
		sections[s] = true
	}
	for _, name := range strings.Split(list, ",") {
		t.Run(name, func(t *testing.T) {
			if sections[name] {
				return
			}
			id, err := bench.ParseExperimentID(name)
			if err != nil {
				t.Fatalf("advertised name does not parse: %v", err)
			}
			if id.String() != name {
				t.Fatalf("advertised name %q is the alias of %q; the help must use canonical names", name, id)
			}
		})
	}
}

// TestOnlyHelpIsComplete checks the converse: everything selectable is
// advertised — each runnable experiment exactly once, in presentation
// order, plus every CLI-only section.
func TestOnlyHelpIsComplete(t *testing.T) {
	advertised := map[string]int{}
	_, list, _ := strings.Cut(onlyHelp(), ": ")
	for _, name := range strings.Split(list, ",") {
		advertised[name]++
	}
	for _, id := range bench.AllExperiments() {
		if advertised[id.String()] != 1 {
			t.Errorf("experiment %s advertised %d times, want 1", id, advertised[id.String()])
		}
	}
	for _, s := range cliOnlySections {
		if advertised[s] != 1 {
			t.Errorf("section %s advertised %d times, want 1", s, advertised[s])
		}
	}
	if len(advertised) != len(bench.AllExperiments())+len(cliOnlySections) {
		t.Errorf("help advertises %d names, want %d", len(advertised), len(bench.AllExperiments())+len(cliOnlySections))
	}
	// The help lists the experiments in the run loop's presentation order.
	var order []string
	for _, name := range strings.Split(list, ",") {
		if advertised[name] == 1 && !slices.Contains(cliOnlySections, name) {
			order = append(order, name)
		}
	}
	if got, want := strings.Join(order, " "), bench.ExperimentNames(); got != want {
		t.Errorf("help lists experiments as %q, want presentation order %q", got, want)
	}
}
