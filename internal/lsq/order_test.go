package lsq

import (
	"testing"
	"testing/quick"
)

func TestOrderTrackerBasics(t *testing.T) {
	o := NewOrderTracker(64)
	if !o.AllLoadsOlderThanDone(100) {
		t.Fatal("empty tracker should pass")
	}
	o.Add(10)
	o.Add(20)
	if o.AllLoadsOlderThanDone(15) {
		t.Fatal("outstanding load 10 should gate seq 15")
	}
	if !o.AllLoadsOlderThanDone(10) {
		t.Fatal("load 10 itself is not older than seq 10")
	}
	o.Remove(10)
	if !o.AllLoadsOlderThanDone(15) {
		t.Fatal("completed load still gates")
	}
	if o.AllLoadsOlderThanDone(25) {
		t.Fatal("load 20 still outstanding")
	}
}

func TestOrderTrackerSquash(t *testing.T) {
	o := NewOrderTracker(64)
	o.Add(10)
	o.Add(20)
	o.SquashYoungerThan(15)
	if o.AllLoadsOlderThanDone(25) {
		t.Fatal("load 10 survived the squash and must gate")
	}
	o.Remove(10)
	if !o.AllLoadsOlderThanDone(25) {
		t.Fatal("squashed load 20 still gates")
	}
}

func TestOrderTrackerReplayDuplicate(t *testing.T) {
	// A load allocated, squashed, and allocated again (a checkpoint
	// restart) must behave like a single outstanding load — the bug class
	// that deadlocked the SRL drain.
	o := NewOrderTracker(64)
	o.Add(10)
	o.SquashYoungerThan(5) // squashes 10
	o.Add(10)              // replayed
	if o.AllLoadsOlderThanDone(15) {
		t.Fatal("replayed load not outstanding")
	}
	o.Remove(10)
	if !o.AllLoadsOlderThanDone(15) {
		t.Fatal("replayed load stuck after completion")
	}
	if o.Len() != 0 {
		t.Fatalf("outstanding %d", o.Len())
	}
}

// TestOrderTrackerSizing pins the ring to the smallest power-of-two number
// of words covering the requested span.
func TestOrderTrackerSizing(t *testing.T) {
	for _, c := range []struct{ span, words int }{
		{1, 1}, {64, 1}, {65, 2}, {200, 4}, {8192, 128},
	} {
		if got := len(NewOrderTracker(c.span).bits); got != c.words {
			t.Errorf("span %d: %d words, want %d", c.span, got, c.words)
		}
	}
}

// Property: the tracker's gate answer, oldest entry and outstanding count
// always equal the reference "min of the outstanding set" under random
// alloc/complete/squash traffic, including replays of the same sequence
// numbers. Loads stay within a span of the ring's size above a base that
// moves forward — completing every load it passes, as commit does — so the
// ring wraps many times, and squash points fall anywhere in the span, so
// squashes cross word boundaries.
func TestOrderTrackerMatchesReference(t *testing.T) {
	for _, span := range []int{64, 256} {
		f := func(ops []uint32) bool {
			o := NewOrderTracker(span)
			ref := map[uint64]bool{}
			base := uint64(1)
			for _, op := range ops {
				seq := base + uint64(op>>8)%uint64(span)
				switch op % 5 {
				case 0, 1:
					o.Add(seq)
					ref[seq] = true
				case 2:
					o.Remove(seq)
					delete(ref, seq)
				case 3:
					o.SquashYoungerThan(seq - 1)
					for s := range ref {
						if s >= seq {
							delete(ref, s)
						}
					}
				case 4:
					base += uint64(op>>8) % 97
					for s := range ref {
						if s < base {
							o.Remove(s)
							delete(ref, s)
						}
					}
				}
				if o.Len() != len(ref) {
					return false
				}
				oldest, ok := o.Oldest()
				if ok != (len(ref) > 0) {
					return false
				}
				for s := range ref {
					if s < oldest {
						return false
					}
				}
				if ok && !ref[oldest] {
					return false
				}
				// Probe around the live span, below and above it.
				probe := base - 8 + uint64(op>>16)%uint64(span+16)
				want := true
				for s := range ref {
					if s < probe {
						want = false
						break
					}
				}
				if o.AllLoadsOlderThanDone(probe) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("span %d: %v", span, err)
		}
	}
}

// TestOrderTrackerInOrderWithoutQueries streams ten spans' worth of loads
// through the tracker in program order, a few outstanding at a time, and
// never asks the gate question. The conventional designs use the tracker
// exactly this way, so the oldest bound must follow completions on its own
// rather than only when a query looks at it, or the span check trips.
func TestOrderTrackerInOrderWithoutQueries(t *testing.T) {
	const span, inFlight = 128, 24
	o := NewOrderTracker(span)
	for seq := uint64(1); seq <= 10*span; seq++ {
		o.Add(seq)
		if seq > inFlight {
			o.Remove(seq - inFlight)
		}
	}
	if o.Len() != inFlight {
		t.Fatalf("outstanding %d, want %d", o.Len(), inFlight)
	}
	if o.AllLoadsOlderThanDone(10*span-inFlight+2) || !o.AllLoadsOlderThanDone(10*span-inFlight+1) {
		t.Fatal("gate does not sit on the oldest outstanding load")
	}
}

// TestOrderTrackerSpanCheck: loads further apart than the ring holds would
// alias, so allocating one is an invariant violation, not a silent wrap.
func TestOrderTrackerSpanCheck(t *testing.T) {
	o := NewOrderTracker(64)
	o.Add(100)
	o.Add(163) // span 63: fits
	defer func() {
		if recover() == nil {
			t.Fatal("allocating across more than the span did not panic")
		}
	}()
	o.Add(164)
}

// BenchmarkOrderTracker measures the write-after-read tracker under a
// window's load traffic: 256 loads allocated in program order, completed
// out of order (in eight interleaved strides), with the SRL head's gate
// question asked after each completion, on a ring sized for Table 1's
// 8192-entry window.
func BenchmarkOrderTracker(b *testing.B) {
	o := NewOrderTracker(8192)
	seq := uint64(1)
	gated := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := seq
		for j := 0; j < 256; j++ {
			o.Add(seq)
			seq++
		}
		for s := uint64(0); s < 8; s++ {
			for j := s; j < 256; j += 8 {
				o.Remove(base + j)
				if !o.AllLoadsOlderThanDone(base + 128) {
					gated++
				}
			}
		}
	}
	if gated == 0 {
		b.Fatal("the gate never held")
	}
}
