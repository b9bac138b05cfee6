package core

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvents is container/heap's reference for the completion heap: events
// keyed by cycle, each carrying the id it was pushed with.
type refEvents []refEvent

type refEvent struct {
	cycle uint64
	id    uint32
}

func (h refEvents) Len() int           { return len(h) }
func (h refEvents) Less(i, j int) bool { return h[i].cycle < h[j].cycle }
func (h refEvents) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEvents) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestMatchesContainerHeap drives the completion heap and container/heap
// with the same randomized push/pop sequence, with deliberately heavy key
// ties, and requires identical (cycle, payload) pop order. The simulator's
// determinism depends on this equivalence: the completion heap pops
// same-cycle events in layout order, so its sift must match
// container/heap's exactly, not merely satisfy the heap property. Each
// event's epoch carries its push order as the payload.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h cmplHeap
		var ref refEvents
		var d dynUop
		id := uint32(0)
		check := func(op int) {
			got := h.head()
			h.pop()
			want := heap.Pop(&ref).(refEvent)
			if got.cycle != want.cycle || got.epoch != want.id || got.d != &d {
				t.Fatalf("seed %d op %d: got (%d,%d), container/heap gives (%d,%d)",
					seed, op, got.cycle, got.epoch, want.cycle, want.id)
			}
		}
		for op := 0; op < 5000; op++ {
			if ref.Len() == 0 || rng.Intn(3) != 0 {
				cycle := uint64(rng.Intn(16)) // small key space: many ties
				d.epoch = id
				h.push(cycle, &d)
				heap.Push(&ref, refEvent{cycle: cycle, id: id})
				id++
			} else {
				check(op)
			}
			if h.len() != ref.Len() {
				t.Fatalf("length mismatch: %d vs %d", h.len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			check(-1)
		}
	}
}

// TestCmplHeapGrow: a grown heap takes its events without reallocating
// and pops them in cycle order.
func TestCmplHeapGrow(t *testing.T) {
	var h cmplHeap
	var d dynUop
	h.grow(64)
	s := h.s[:1]
	for i := 63; i >= 0; i-- {
		h.push(uint64(i), &d)
	}
	if h.len() != 64 || &h.s[0] != &s[0] {
		t.Fatalf("len = %d, reallocated %v", h.len(), &h.s[0] != &s[0])
	}
	for i := 0; i < 64; i++ {
		if e := h.head(); e.cycle != uint64(i) {
			t.Fatalf("pop %d: got %d", i, e.cycle)
		}
		h.pop()
	}
}

// TestCmplHeapZeroAllocSteadyState: once warm, push/pop cycles allocate
// nothing.
func TestCmplHeapZeroAllocSteadyState(t *testing.T) {
	var h cmplHeap
	var d dynUop
	h.grow(128)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 100; i++ {
			h.push(uint64(i*7%64), &d)
		}
		for h.len() > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run", allocs)
	}
}
