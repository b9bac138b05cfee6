package core

import (
	"fmt"
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

// deepCfg is shortCfg at the far end of the paper's memory gap: 8000-cycle
// memory with the prefetcher off, so every miss is a full memory shadow and
// loads and store drains queue for a free MSHR.
func deepCfg(d StoreDesign) Config {
	cfg := shortCfg(d)
	cfg.Mem.MemLatency = 8000
	cfg.Mem.PrefetchOn = false
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
// loop's allocated test is its stall test); the ready list's lanes pass
// checkReadyLanes. Every 1000 cycles: the outstanding-miss counter equals
// the allocated, unfinished miss loads in the window; the SDB holds
// exactly the window's poisoned uops, its head is the oldest of them, and
// that head has no poisoned producer; every parked uop in the window has a
// park-lane entry at its epoch; ckptIndex finds every live checkpoint where
// a scan of the file does, and no other id. So that the checks cannot pass
// vacuously, some cycle must see more than one checkpoint, a restart gap in
// the checkpoint file, a stalled load and a parked load, some check more
// than one SDB resident, and some cycle that began with a non-empty SDB
// must restart.
func TestPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep skipped in -short mode")
	}
	checks, maxSDB, sdbRestarts, maxCkpts, maxStalled, maxParked, ckptGaps := 0, 0, 0, 0, 0, 0, 0
	var lanes laneCheck
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
				lanes = laneCheck{}
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
					if msg, gap := ckptIndexCheck(c); msg != "" {
						t.Fatalf("%s/%s sync=%v cycle %d: %s", d, su, sync, c.cycle, msg)
					} else if gap {
						ckptGaps++
					}
					for _, ld := range c.srlStalled {
						if !ld.allocated || !ld.isLoad() || ld.inSched || ld.done {
							t.Fatalf("%s/%s sync=%v cycle %d: SRL-stalled uop %s is not an allocated load waiting outside the scheduler (alloc=%v inSched=%v done=%v)",
								d, su, sync, c.cycle, ld.u.String(), ld.allocated, ld.inSched, ld.done)
						}
					}
					if msg := lanes.check(c); msg != "" {
						t.Fatalf("%s/%s sync=%v cycle %d: %s", d, su, sync, c.cycle, msg)
					}
					maxCkpts = max(maxCkpts, len(c.ckpts))
					maxStalled = max(maxStalled, len(c.srlStalled))
					maxParked = max(maxParked, len(c.ready.parked)-c.ready.ph)
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
						if _, ok := lanes.cur[u]; u.parked && !ok {
							t.Fatalf("%s/%s sync=%v cycle %d: parked uop %s has no park-lane entry at its epoch",
								d, su, sync, c.cycle, u.u.String())
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
	t.Logf("%d window checks; at most %d SDB residents at a check; at most %d checkpoints, %d SRL-stalled loads and %d park-lane entries after a cycle; %d cycles with a non-empty SDB restarted; %d cycles ended with a restart gap in the checkpoint file",
		checks, maxSDB, maxCkpts, maxStalled, maxParked, sdbRestarts, ckptGaps)
	if maxSDB < 2 || sdbRestarts == 0 {
		t.Fatal("the SDB checks ran vacuously: no check saw two residents, or no cycle with a non-empty SDB restarted")
	}
	if maxCkpts < 2 || maxStalled == 0 || ckptGaps == 0 {
		t.Fatal("the checkpoint or stall checks ran vacuously: no cycle saw two checkpoints or a restart gap, or none saw a stalled load")
	}
	if maxParked == 0 {
		t.Fatal("the park-lane checks ran vacuously: no cycle ended with a parked load")
	}
}

// ckptIndexCheck compares ckptIndex with a scan of the checkpoint file for
// every live checkpoint's id and the ids beside it, which a commit, a
// restart or the next checkpoint leaves unused, and reports whether the
// file has a gap (ids a restart squashed between two live checkpoints).
func ckptIndexCheck(c *Core) (msg string, gap bool) {
	scan := func(id int) int {
		for i := range c.ckpts {
			if c.ckpts[i].id == id {
				return i
			}
		}
		return -1
	}
	for i := range c.ckpts {
		for id := c.ckpts[i].id - 1; id <= c.ckpts[i].id+1; id++ {
			if got, want := c.ckptIndex(id), scan(id); got != want {
				return fmt.Sprintf("ckptIndex(%d) = %d, the checkpoint file holds it at %d", id, got, want), false
			}
		}
	}
	if got := c.ckptIndex(c.nextCkptID); got != -1 {
		return fmt.Sprintf("ckptIndex finds the unused id %d at %d", c.nextCkptID, got), false
	}
	return "", c.ckpts[len(c.ckpts)-1].id-c.ckpts[0].id >= len(c.ckpts)
}

// laneCheck checks the ready list's lanes after every cycle: both are
// sorted by sequence number; a park-lane entry at its uop's current epoch
// names a parked uop (every other entry there is stale for good, which is
// why the scan may pass the lane over), an allocated load in the scheduler
// whose sources are done, so none is pending or poisoned; and a uop whose
// last entry at its epoch left the lane during the cycle is no longer
// parked at that epoch (it issued or was squashed). cur and prev map the
// uops with a park-lane entry at their epoch, after this cycle and the one
// before, to that epoch.
type laneCheck struct {
	cur, prev map[*dynUop]uint32
}

func (k *laneCheck) check(c *Core) string {
	lane := c.ready.parked[c.ready.ph:]
	for _, s := range [][]readyItem{c.ready.s, lane} {
		for i := 1; i < len(s); i++ {
			if s[i].seq < s[i-1].seq {
				return fmt.Sprintf("a ready-list lane is unsorted: seq %d after %d", s[i].seq, s[i-1].seq)
			}
		}
	}
	if k.cur == nil {
		k.cur, k.prev = map[*dynUop]uint32{}, map[*dynUop]uint32{}
	}
	k.cur, k.prev = k.prev, k.cur
	clear(k.cur)
	for _, e := range lane {
		u := e.d
		if _, seen := k.cur[u]; seen || e.epoch != u.epoch {
			continue
		}
		if !u.parked || !u.allocated || !u.isLoad() || !u.inSched || u.pendingSrc > 0 || u.anyPoisonedSrc() || !u.settled() {
			return fmt.Sprintf("park-lane uop %s: parked=%v allocated=%v inSched=%v pendingSrc=%d poisonedSrc=%v settled=%v",
				u.u.String(), u.parked, u.allocated, u.inSched, u.pendingSrc, u.anyPoisonedSrc(), u.settled())
		}
		k.cur[u] = u.epoch
	}
	for u, epoch := range k.prev {
		if _, ok := k.cur[u]; !ok && u.parked && u.epoch == epoch {
			return fmt.Sprintf("uop %s left the park lane still parked", u.u.String())
		}
	}
	return ""
}
