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
// over every suite and checks the bookkeeping invariants. After every
// cycle: a non-empty window's head is the oldest checkpoint's first uop,
// and each checkpoint starts where the previous one's uops end (so the
// youngest committed uop is the one before the oldest checkpoint's start,
// as seqCommitted assumes); every entry of the SRL stall list is an
// allocated load that is neither in the scheduler nor done (so the retry
// loop's allocated test is its stall test). Every 1000 cycles: the
// outstanding-miss counter equals the allocated, unfinished miss loads in
// the window; the SDB holds exactly the window's poisoned uops, its head
// is the oldest of them, and that head has no poisoned producer. So that
// the checks cannot pass vacuously, some cycle must see more than one
// checkpoint and a stalled load, some check more than one SDB resident,
// and some cycle that began with a non-empty SDB must restart.
func TestPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep skipped in -short mode")
	}
	checks, maxSDB, sdbRestarts, maxCkpts, maxStalled := 0, 0, 0, 0, 0
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
					sdbBefore, restartsBefore := c.sdb.Len(), c.res.Restarts
					c.StepCycle()
					if sdbBefore > 0 && c.res.Restarts > restartsBefore {
						sdbRestarts++
					}
					if c.win.len() > 0 && c.win.at(0).u.Seq != c.ckpts[0].startSeq {
						t.Fatalf("%s/%s sync=%v: window head is not the oldest checkpoint's first uop: %s",
							d, su, sync, c.debugState())
					}
					for i := 1; i < len(c.ckpts); i++ {
						prev := &c.ckpts[i-1]
						if end := prev.startSeq + uint64(prev.uops); c.ckpts[i].startSeq != end {
							t.Fatalf("%s/%s sync=%v cycle %d: checkpoint %d starts at %d, its predecessor's uops end before %d",
								d, su, sync, c.cycle, c.ckpts[i].id, c.ckpts[i].startSeq, end)
						}
					}
					for _, ld := range c.srlStalled {
						if !ld.allocated || !ld.isLoad() || ld.inSched || ld.done {
							t.Fatalf("%s/%s sync=%v cycle %d: SRL-stalled uop %s is not an allocated load waiting outside the scheduler (alloc=%v inSched=%v done=%v)",
								d, su, sync, c.cycle, ld.u.String(), ld.allocated, ld.inSched, ld.done)
						}
					}
					maxCkpts = max(maxCkpts, len(c.ckpts))
					maxStalled = max(maxStalled, len(c.srlStalled))
					if c.cycle%1000 != 0 {
						continue
					}
					checks++
					misses, poisoned := 0, 0
					var oldestPoisoned *dynUop
					for i := 0; i < c.win.len(); i++ {
						u := c.win.at(i)
						if u.allocated && u.missReturn > 0 && !u.done {
							misses++
						}
						if u.poisoned {
							if oldestPoisoned == nil {
								oldestPoisoned = u
							}
							poisoned++
						}
					}
					if misses != c.outstandingMisses {
						t.Fatalf("%s/%s sync=%v cycle %d: outstandingMisses=%d, window holds %d",
							d, su, sync, c.cycle, c.outstandingMisses, misses)
					}
					if c.sdb.Len() != poisoned {
						t.Fatalf("%s/%s sync=%v cycle %d: SDB holds %d uops, window holds %d poisoned",
							d, su, sync, c.cycle, c.sdb.Len(), poisoned)
					}
					head := c.sdbHead()
					if head != oldestPoisoned {
						t.Fatalf("%s/%s sync=%v: SDB head is not the oldest poisoned uop in the window: %s",
							d, su, sync, c.debugState())
					}
					if head != nil && head.anyPoisonedSrc() {
						t.Fatalf("%s/%s sync=%v: SDB head has a poisoned producer: %s",
							d, su, sync, c.debugState())
					}
					maxSDB = max(maxSDB, poisoned)
				}
			}
		}
	}
	t.Logf("%d window checks; at most %d SDB residents at a check; at most %d checkpoints and %d SRL-stalled loads after a cycle; %d cycles with a non-empty SDB restarted",
		checks, maxSDB, maxCkpts, maxStalled, sdbRestarts)
	if maxSDB < 2 || sdbRestarts == 0 {
		t.Fatal("the SDB checks ran vacuously: no check saw two residents, or no cycle with a non-empty SDB restarted")
	}
	if maxCkpts < 2 || maxStalled == 0 {
		t.Fatal("the checkpoint or stall checks ran vacuously: no cycle saw two checkpoints, or none saw a stalled load")
	}
}
