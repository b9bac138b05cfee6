package core

import (
	"testing"

	"srlproc/internal/trace"
)

// shortCfg shrinks a config for fast unit testing.
func shortCfg(d StoreDesign) Config {
	cfg := DefaultConfig(d)
	cfg.WarmupUops = 5_000
	cfg.RunUops = 20_000
	return cfg
}

// withSyncKnobs adds the ordering experiment's sync traffic to cfg:
// fences, load-acquires and store-releases exercise every ordering gate.
func withSyncKnobs(cfg Config) Config {
	cfg.FencePer1K = 3
	cfg.AcquireFrac = 0.12
	cfg.ReleaseFrac = 0.12
	return cfg
}

func TestSmokeAllDesigns(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignHierarchical, DesignSRL} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := shortCfg(d)
			if d == DesignLargeSTQ {
				cfg.STQSize = 1024
			}
			c, err := New(cfg, trace.SINT2K)
			if err != nil {
				t.Fatal(err)
			}
			res := c.Run()
			if res.Uops < cfg.RunUops {
				t.Fatalf("committed %d uops, want >= %d", res.Uops, cfg.RunUops)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles elapsed")
			}
			ipc := res.IPC()
			if ipc <= 0.05 || ipc > float64(cfg.IssueWidth) {
				t.Fatalf("implausible IPC %.3f", ipc)
			}
			t.Logf("%s: IPC=%.2f loads=%d stores=%d missDep=%.1f%% restarts=%d",
				d, ipc, res.Loads, res.Stores, res.PctMissDependentUops(), res.Restarts)
		})
	}
}

func TestSmokeAllSuitesSRL(t *testing.T) {
	for _, s := range trace.AllSuites() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c, err := New(shortCfg(DesignSRL), s)
			if err != nil {
				t.Fatal(err)
			}
			res := c.Run()
			if res.Uops < 20_000 {
				t.Fatalf("committed %d uops", res.Uops)
			}
			t.Logf("%s: IPC=%.2f redone=%.1f%% missDepStores=%.1f%% srlOcc=%.1f%% stalls/10k=%.1f",
				s, res.IPC(), res.PctRedoneStores(), res.PctMissDependentStores(),
				res.PctTimeSRLOccupied(), res.SRLStallsPer10K())
		})
	}
}

func TestDeterminism(t *testing.T) {
	for _, skip := range []bool{true, false} {
		skip := skip
		name := "skip"
		if !skip {
			name = "step"
		}
		t.Run(name, func(t *testing.T) {
			run := func() *Results {
				cfg := shortCfg(DesignSRL)
				cfg.EventSkip = skip
				c, err := New(cfg, trace.SFP2K)
				if err != nil {
					t.Fatal(err)
				}
				return c.Run()
			}
			a, b := run(), run()
			if a.Cycles != b.Cycles || a.Uops != b.Uops || a.Restarts != b.Restarts {
				t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)",
					a.Cycles, a.Uops, a.Restarts, b.Cycles, b.Uops, b.Restarts)
			}
		})
	}
}

// TestPipelineInvariants steps every design, plain and with sync knobs,
// over every suite and checks two bookkeeping invariants every 1000
// cycles: the outstanding-miss counter equals the allocated, unfinished
// miss loads in the window, and the window head is not older than the
// oldest checkpoint.
func TestPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep skipped in -short mode")
	}
	checks := 0
	for _, d := range []StoreDesign{DesignBaseline, DesignLargeSTQ, DesignHierarchical, DesignSRL, DesignFilteredSTQ} {
		for _, sync := range []bool{false, true} {
			for _, su := range trace.AllSuites() {
				cfg := shortCfg(d)
				if sync {
					cfg = withSyncKnobs(cfg)
				}
				c, err := New(cfg, su)
				if err != nil {
					t.Fatal(err)
				}
				for !c.Done() {
					c.StepCycle()
					if c.cycle%1000 != 0 {
						continue
					}
					checks++
					misses := 0
					for i := 0; i < c.win.len(); i++ {
						if u := c.win.at(i); u.allocated && u.missReturn > 0 && !u.done {
							misses++
						}
					}
					if misses != c.outstandingMisses {
						t.Fatalf("%s/%s sync=%v cycle %d: outstandingMisses=%d, window holds %d",
							d, su, sync, c.cycle, c.outstandingMisses, misses)
					}
					if c.win.len() > 0 && c.win.at(0).u.Seq < c.ckpts[0].startSeq {
						t.Fatalf("%s/%s sync=%v: window head older than oldest checkpoint: %s",
							d, su, sync, c.debugState())
					}
				}
			}
		}
	}
	t.Logf("%d invariant checks", checks)
}
