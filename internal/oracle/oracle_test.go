package oracle

import (
	"encoding/json"
	"strings"
	"testing"
)

func newTest(strict bool) *Oracle {
	return New(Options{StrictMemory: strict})
}

// allocResolved is shorthand: a plain (non-release) store allocated,
// resolved, and ready.
func allocResolved(o *Oracle, cycle, seq, id, addr uint64) {
	o.StoreAlloc(cycle, seq, id, false)
	o.StoreResolved(cycle, seq, addr, 8, true)
}

func wantKinds(t *testing.T, o *Oracle, kinds ...Kind) {
	t.Helper()
	got := o.Divergences()
	if uint64(len(kinds)) != o.Count() || len(got) != len(kinds) {
		t.Fatalf("want %d divergences %v, got count=%d %v", len(kinds), kinds, o.Count(), got)
	}
	for i, k := range kinds {
		if got[i].Kind != k {
			t.Fatalf("divergence %d: want %v, got %v", i, k, got[i])
		}
	}
}

func TestCleanForwardAndCommit(t *testing.T) {
	o := newTest(true)
	allocResolved(o, 1, 10, 100, 0x40)
	// Load 11 forwards from store 10 — the unique older ready match.
	o.LoadDecision(2, 11, 0x40, FwdL1STQ, 100)
	o.CommitStore(3, 10)
	o.CommitLoad(3, 11)
	o.StoreDrained(4, 10)
	// A later memory load sees the drained image.
	o.LoadDecision(5, 12, 0x44, FwdMemory, NoProducer)
	o.CommitLoad(6, 12)
	o.Finish(7)
	wantKinds(t, o)
}

func TestForwardAgeAndAddrAndSource(t *testing.T) {
	o := newTest(true)
	allocResolved(o, 1, 20, 200, 0x80)
	// Forward from a younger store (the seeded-bug signature).
	o.LoadDecision(2, 15, 0x80, FwdFC, 200)
	// Forward from a store to a different word.
	o.LoadDecision(3, 25, 0x10, FwdFC, 200)
	// Forward from an unknown producer.
	o.LoadDecision(4, 26, 0x80, FwdIndexed, 999)
	// Forward from a resolved-but-unready store.
	o.StoreAlloc(5, 27, 201, false)
	o.StoreResolved(5, 27, 0x88, 8, false)
	o.LoadDecision(6, 28, 0x88, FwdL1STQ, 201)
	wantKinds(t, o, KindForwardAge, KindForwardAddr, KindForwardSource, KindForwardSource)
}

func TestForwardStale(t *testing.T) {
	o := newTest(true)
	allocResolved(o, 1, 10, 100, 0x40)
	allocResolved(o, 2, 12, 102, 0x40)
	// Load 13 must pick store 12, not the older 10.
	o.LoadDecision(3, 13, 0x40, FwdL1STQ, 100)
	wantKinds(t, o, KindForwardStale)
}

func TestMemoryStaleStrictOnly(t *testing.T) {
	for _, strict := range []bool{true, false} {
		o := newTest(strict)
		allocResolved(o, 1, 10, 100, 0x40)
		o.LoadDecision(2, 11, 0x40, FwdMemory, NoProducer)
		if strict {
			wantKinds(t, o, KindMemoryStale)
		} else {
			wantKinds(t, o)
		}
	}
}

func TestMemoryPastDrainedStoreIsClean(t *testing.T) {
	o := newTest(true)
	allocResolved(o, 1, 10, 100, 0x40)
	o.StoreDrained(2, 10) // speculative redo drain: value visible in memory
	o.LoadDecision(3, 11, 0x40, FwdMemory, NoProducer)
	o.CommitStore(4, 10)
	o.CommitLoad(4, 11)
	wantKinds(t, o)
}

func TestCommitProducerAndVisibility(t *testing.T) {
	o := newTest(false)
	allocResolved(o, 1, 10, 100, 0x40)
	allocResolved(o, 1, 12, 102, 0x40)
	// Load 13 forwarded from the stale store 10; both stores commit first.
	o.LoadDecision(2, 13, 0x40, FwdFC, 100)
	// Load 14 read memory although store 12 has not drained.
	o.LoadDecision(2, 14, 0x40, FwdMemory, NoProducer)
	o.CommitStore(3, 10)
	o.CommitStore(3, 12)
	o.CommitLoad(3, 13)
	o.CommitLoad(3, 14)
	// The forward-stale decision fires at decision time too when strict is
	// off? No: FwdFC checks run regardless of StrictMemory.
	wantKinds(t, o, KindForwardStale, KindCommitProducer, KindCommitVisibility)
}

func TestCommitVisibilityDrainAfterAccess(t *testing.T) {
	o := newTest(false)
	allocResolved(o, 1, 10, 100, 0x40)
	// Load reads memory at cycle 2; the store drains only at cycle 5.
	o.LoadDecision(2, 11, 0x40, FwdMemory, NoProducer)
	o.CommitStore(4, 10)
	o.StoreDrained(5, 10)
	o.CommitLoad(6, 11)
	wantKinds(t, o, KindCommitVisibility)
}

func TestCommitMissingAndCommitStore(t *testing.T) {
	o := newTest(false)
	o.CommitLoad(1, 5)
	o.StoreAlloc(2, 6, 60, false)
	o.CommitStore(3, 6) // never resolved
	wantKinds(t, o, KindCommitMissing, KindCommitStore)
}

func TestDrainOrder(t *testing.T) {
	o := newTest(false)
	allocResolved(o, 1, 10, 100, 0x40)
	allocResolved(o, 1, 12, 102, 0x40)
	o.StoreDrained(2, 12)
	o.StoreDrained(3, 10) // older drains after younger: image corruption
	wantKinds(t, o, KindDrainOrder)
}

func TestSquashRevokesDrainsAndRecords(t *testing.T) {
	o := newTest(true)
	allocResolved(o, 1, 10, 100, 0x40)
	allocResolved(o, 1, 12, 102, 0x40)
	o.StoreDrained(2, 10)
	o.StoreDrained(2, 12)
	o.LoadDecision(2, 13, 0x40, FwdL1STQ, 102)
	// Restart from seq 12: store 12's drain and load 13 vanish.
	o.Squash(12)
	// Replay: store 12 reallocates with a fresh identifier and drains again
	// — not a drain-order violation, its old incarnation was revoked.
	allocResolved(o, 3, 12, 103, 0x40)
	o.StoreDrained(4, 12)
	o.LoadDecision(5, 13, 0x40, FwdL1STQ, 103)
	o.CommitStore(6, 10)
	o.CommitStore(6, 12)
	o.CommitLoad(6, 13)
	o.Finish(7)
	wantKinds(t, o)
}

func TestFinishImageMismatch(t *testing.T) {
	o := newTest(false)
	allocResolved(o, 1, 10, 100, 0x40)
	o.CommitStore(2, 10)
	o.StoreDrained(3, 10)
	// Corrupt the bookkeeping deliberately to prove Finish checks it.
	o.words[word(0x40)].commit = nil
	o.Finish(4)
	wantKinds(t, o, KindImageMismatch)
}

func TestDivergenceCapAndCount(t *testing.T) {
	o := New(Options{MaxDivergences: 2})
	for i := 0; i < 5; i++ {
		o.CommitLoad(1, uint64(100+i))
	}
	if o.Count() != 5 || len(o.Divergences()) != 2 {
		t.Fatalf("want count 5, retained 2; got %d, %d", o.Count(), len(o.Divergences()))
	}
}

func TestOnDivergenceCallback(t *testing.T) {
	var seen []Kind
	o := New(Options{OnDivergence: func(d *Divergence) { seen = append(seen, d.Kind) }})
	o.CommitLoad(1, 5)
	if len(seen) != 1 || seen[0] != KindCommitMissing {
		t.Fatalf("callback saw %v", seen)
	}
}

func TestDivergenceJSON(t *testing.T) {
	d := Divergence{Kind: KindForwardAge, Cycle: 7, LoadSeq: 3, Detail: "x"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"forward-age"`) {
		t.Fatalf("kind not named in %s", b)
	}
}

func TestSyncOrderLoadPastFence(t *testing.T) {
	o := newTest(false)
	o.FenceAlloc(1, 10)
	o.LoadAlloc(1, 11, false)
	o.LoadDecision(2, 11, 0x40, FwdMemory, NoProducer)
	wantKinds(t, o, KindSyncOrder)
}

func TestAcquireSelfDecisionClean(t *testing.T) {
	o := newTest(false)
	// The acquire's own decision is not gated by itself, and once performed
	// it no longer gates younger loads.
	o.LoadAlloc(1, 10, true)
	o.LoadDecision(2, 10, 0x40, FwdMemory, NoProducer)
	o.LoadAlloc(3, 11, false)
	o.LoadDecision(4, 11, 0x48, FwdMemory, NoProducer)
	wantKinds(t, o)
}

func TestSyncOrderStoreDrainPastAcquire(t *testing.T) {
	o := newTest(false)
	o.LoadAlloc(1, 10, true) // unperformed acquire
	allocResolved(o, 1, 11, 100, 0x40)
	o.StoreDrained(2, 11)
	wantKinds(t, o, KindSyncOrder)
}

func TestReleaseOrderDrainPastLoad(t *testing.T) {
	o := newTest(false)
	o.LoadAlloc(1, 10, false)
	o.StoreAlloc(1, 11, 100, true)
	o.StoreResolved(1, 11, 0x40, 8, true)
	o.StoreDrained(2, 11)
	wantKinds(t, o, KindReleaseOrder)
}

func TestFenceOrderChecks(t *testing.T) {
	// Unperformed older load.
	o := newTest(false)
	o.LoadAlloc(1, 10, false)
	o.FenceAlloc(1, 11)
	o.FencePerformed(2, 11)
	wantKinds(t, o, KindFenceOrder)
	// Undrained older store.
	o = newTest(false)
	allocResolved(o, 1, 10, 100, 0x40)
	o.FenceAlloc(1, 11)
	o.FencePerformed(2, 11)
	wantKinds(t, o, KindFenceOrder)
	// Unperformed older sync.
	o = newTest(false)
	o.FenceAlloc(1, 10)
	o.FenceAlloc(1, 11)
	o.FencePerformed(2, 11)
	wantKinds(t, o, KindFenceOrder)
}

func TestFenceCleanAfterAllOlderDone(t *testing.T) {
	o := newTest(false)
	o.LoadAlloc(1, 10, false)
	allocResolved(o, 1, 11, 100, 0x40)
	o.FenceAlloc(1, 12)
	o.LoadDecision(2, 10, 0x48, FwdMemory, NoProducer)
	o.StoreDrained(3, 11)
	o.FencePerformed(4, 12)
	wantKinds(t, o)
}

func TestSquashClearsOrderingState(t *testing.T) {
	o := newTest(false)
	o.LoadAlloc(1, 10, false)
	o.FenceAlloc(1, 11)
	o.StoreAlloc(1, 12, 100, true)
	o.Squash(10)
	// Replay: the fence performs immediately — nothing older survives.
	o.FenceAlloc(2, 11)
	o.FencePerformed(3, 11)
	o.StoreAlloc(4, 12, 101, true)
	wantKinds(t, o)
}

func TestKindAndForwardKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	for k := ForwardKind(0); k < numForwardKinds; k++ {
		if strings.HasPrefix(k.String(), "fwd(") {
			t.Fatalf("forward kind %d unnamed", k)
		}
	}
}
