package srlproc

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func detConfig(d StoreDesign) Config {
	cfg := DefaultConfig(d)
	cfg.Seed = 7
	cfg.WarmupUops = 2_000
	cfg.RunUops = 8_000
	return cfg
}

func resultsJSON(t *testing.T, cfg Config, suite Suite) []byte {
	t.Helper()
	res, err := RunContext(context.Background(), cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicResults runs the same configuration and seed twice and
// requires byte-identical Results JSON — once plain, once with the
// observability layer enabled, once with the lockstep oracle enabled. The
// simulator carries no hidden global state (wall clock, map iteration
// order, pointer hashing) into its outputs, so identical inputs must give
// identical bytes; any drift here means a reported run is not reproducible
// from its config fingerprint.
func TestDeterministicResults(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"obs", func(c *Config) { c.Obs = DefaultObsConfig() }},
		{"check", func(c *Config) { c.Check = true }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(DesignSRL)
			v.mod(&cfg)
			a := resultsJSON(t, cfg, SINT2K)
			b := resultsJSON(t, cfg, SINT2K)
			if !bytes.Equal(a, b) {
				t.Fatalf("same config+seed produced different Results JSON:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// TestCheckedRunMatchesUnchecked: the oracle observes the pipeline, it must
// not perturb it. A checked run's performance results (cycles, committed
// uops, restarts) must equal the unchecked run's bit for bit.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignSRL, DesignHierarchical} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(d)
			plain, err := RunContext(context.Background(), cfg, SINT2K)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Check = true
			checked, err := RunContext(context.Background(), cfg, SINT2K)
			if err != nil {
				t.Fatal(err)
			}
			if checked.DivergenceCount != 0 {
				t.Fatalf("oracle reported %d divergences: %v", checked.DivergenceCount, checked.Divergences[0])
			}
			if plain.Cycles != checked.Cycles || plain.Uops != checked.Uops || plain.Restarts != checked.Restarts {
				t.Fatalf("oracle perturbed the run: cycles %d/%d uops %d/%d restarts %d/%d",
					plain.Cycles, checked.Cycles, plain.Uops, checked.Uops, plain.Restarts, checked.Restarts)
			}
		})
	}
}
