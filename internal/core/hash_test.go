package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"srlproc/internal/trace"
)

func TestFingerprintStableAndSensitive(t *testing.T) {
	a := DefaultConfig(DesignSRL)
	b := DefaultConfig(DesignSRL)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs hash differently")
	}
	// Every class of field must perturb the hash: top-level, nested memory
	// config, seed and run-length workload control.
	mods := []func(*Config){
		func(c *Config) { c.Design = DesignBaseline },
		func(c *Config) { c.SRLSize = 512 },
		func(c *Config) { c.Mem.MemLatency = 400 },
		func(c *Config) { c.Seed = 99 },
		func(c *Config) { c.RunUops = 123 },
		func(c *Config) { c.UseLCF = false },
	}
	seen := map[uint64]bool{a.Fingerprint(): true}
	for i, mod := range mods {
		c := DefaultConfig(DesignSRL)
		mod(&c)
		fp := c.Fingerprint()
		if seen[fp] {
			t.Fatalf("mod %d did not change the fingerprint", i)
		}
		seen[fp] = true
	}
}

func TestPointFingerprintIncludesSuite(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	if PointFingerprint(cfg, trace.SFP2K) == PointFingerprint(cfg, trace.SINT2K) {
		t.Fatal("suite not part of the point fingerprint")
	}
	if PointFingerprint(cfg, trace.SFP2K) != PointFingerprint(cfg, trace.SFP2K) {
		t.Fatal("point fingerprint unstable")
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 0
	cfg.RunUops = 50_000_000 // far longer than the test will allow
	c, err := New(cfg, trace.SINT2K)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := c.RunContext(ctx)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned results")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestRunContextCompletesUncancelled(t *testing.T) {
	cfg := DefaultConfig(DesignBaseline)
	cfg.WarmupUops = 500
	cfg.RunUops = 4_000
	c, err := New(cfg, trace.PROD)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops < cfg.RunUops {
		t.Fatalf("short run: %d uops", res.Uops)
	}
}

// TestRunContextNoProgressError trips the forward-progress guard with a
// bound far below one stepped DRAM miss shadow: RunContext must stop with
// a *NoProgressError carrying the core's diagnostic state, not panic.
func TestRunContextNoProgressError(t *testing.T) {
	defer func(n uint64) { progressGuardIters = n }(progressGuardIters)
	progressGuardIters = 50
	cfg := DefaultConfig(DesignBaseline)
	cfg.WarmupUops = 1_000
	cfg.RunUops = 10_000
	cfg.EventSkip = false
	c, err := New(cfg, trace.SFP2K)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("RunContext returned %v, want a *NoProgressError", err)
	}
	if res != nil {
		t.Fatal("a wedged run returned results")
	}
	if np.Cycle == 0 || np.Design != DesignBaseline || np.Suite != trace.SFP2K ||
		!strings.Contains(np.State, "cycle=") || !strings.Contains(err.Error(), np.State) {
		t.Fatalf("error lacks the run's identity or state: %+v", np)
	}
}
