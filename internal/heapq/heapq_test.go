package heapq

import (
	"container/heap"
	"math/rand"
	"testing"
)

type refPair struct {
	k  uint64
	id int
}

type refHeap []refPair

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].k < h[j].k }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refPair)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestMatchesContainerHeap drives this heap and container/heap with the
// same randomized push/pop sequence, with deliberately heavy key ties, and
// requires identical (key, payload) pop order. The simulator's determinism
// depends on this equivalence: the completion heap pops same-cycle events
// in layout order, so the sift algorithm must match container/heap's
// exactly, not merely satisfy the heap property.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		var ref refHeap
		id := 0
		for op := 0; op < 5000; op++ {
			if ref.Len() == 0 || rng.Intn(3) != 0 {
				k := uint64(rng.Intn(16)) // small key space: many ties
				h.Push(k, id)
				heap.Push(&ref, refPair{k: k, id: id})
				id++
			} else {
				gk, gv := h.PopMin()
				want := heap.Pop(&ref).(refPair)
				if gk != want.k || gv != want.id {
					t.Fatalf("seed %d op %d: got (%d,%d), container/heap gives (%d,%d)",
						seed, op, gk, gv, want.k, want.id)
				}
			}
			if h.Len() != ref.Len() {
				t.Fatalf("length mismatch: %d vs %d", h.Len(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			gk, gv := h.PopMin()
			want := heap.Pop(&ref).(refPair)
			if gk != want.k || gv != want.id {
				t.Fatalf("seed %d drain: got (%d,%d), want (%d,%d)", seed, gk, gv, want.k, want.id)
			}
		}
	}
}

func TestGrow(t *testing.T) {
	var h Heap[struct{}]
	h.Grow(64)
	for i := 63; i >= 0; i-- {
		h.Push(uint64(i), struct{}{})
	}
	if h.Len() != 64 {
		t.Fatalf("len = %d", h.Len())
	}
	if k, _ := h.Min(); k != 0 {
		t.Fatalf("min = %d", k)
	}
	for i := 0; i < 64; i++ {
		if k, _ := h.PopMin(); k != uint64(i) {
			t.Fatalf("pop %d: got %d", i, k)
		}
	}
}

// TestZeroAllocSteadyState: once warm, push/pop cycles allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	var h Heap[int]
	h.Grow(128)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 100; i++ {
			h.Push(uint64(i*7%64), i)
		}
		for h.Len() > 0 {
			h.PopMin()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run", allocs)
	}
}
