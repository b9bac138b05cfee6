// Package heapq provides a uint64-keyed generic min-heap over a
// preallocated backing slice. It exists to take container/heap off the
// simulator's per-cycle hot path: the standard package moves elements
// through interface{} values, which boxes every Push and Pop (one heap
// allocation each) — the dominant allocation sites in a cycle-stepped
// run. This heap stores (key, value) pairs inline in a slice, so
// steady-state Push/Pop allocate nothing once the slice has grown to its
// working size. Two of the core's queues use it: the completion heap,
// keyed by cycle, and the slice data buffer, keyed by sequence number.
// (The ready set, once a third heap, is an age-ordered array now.)
//
// The sift algorithm is a line-for-line port of container/heap's up/down
// with pairwise swaps. That is deliberate, not incidental, and it is for
// the completion heap: heap order is only partial, so the layout after a
// sequence of operations — and hence the pop order among EQUAL keys —
// depends on the exact swap sequence, and the completion heap routinely
// holds many events for the same cycle. Replicating container/heap's
// swaps keeps their pop order, and with it every simulated result,
// bit-for-bit what it was. Do not "optimise" up/down into a hole-copying
// sift without re-verifying determinism against the full oracle sweep.
package heapq

// Heap is a min-heap of values ordered by a uint64 key. Ties pop in an
// order determined by the swap history (see the package comment); callers
// must either tolerate that order or guarantee distinct keys. The zero
// value is an empty heap ready for use; Grow preallocates capacity.
type Heap[V any] struct {
	s []pair[V]
}

type pair[V any] struct {
	k uint64
	v V
}

// Grow ensures capacity for at least n elements without reallocation.
func (h *Heap[V]) Grow(n int) {
	if cap(h.s) < n {
		s := make([]pair[V], len(h.s), n)
		copy(s, h.s)
		h.s = s
	}
}

// Len returns the number of elements.
func (h *Heap[V]) Len() int { return len(h.s) }

// Reset empties the heap, keeping the backing storage.
func (h *Heap[V]) Reset() { h.s = h.s[:0] }

// Push inserts value v with key k.
func (h *Heap[V]) Push(k uint64, v V) {
	h.s = append(h.s, pair[V]{k: k, v: v})
	h.up(len(h.s) - 1)
}

// Min returns the smallest key and its value without removing it. It must
// not be called on an empty heap.
func (h *Heap[V]) Min() (uint64, V) {
	return h.s[0].k, h.s[0].v
}

// PopMin removes and returns the smallest key and its value. It must not
// be called on an empty heap. The removed slot is zeroed so values holding
// pointers do not pin their referents in the backing array.
func (h *Heap[V]) PopMin() (uint64, V) {
	n := len(h.s) - 1
	h.s[0], h.s[n] = h.s[n], h.s[0]
	h.down(0, n)
	p := h.s[n]
	var zero pair[V]
	h.s[n] = zero
	h.s = h.s[:n]
	return p.k, p.v
}

// At returns the i-th element in heap-internal order (0 = the minimum;
// other positions are unspecified). For full scans such as live-entry
// recounts, without exposing the backing slice.
func (h *Heap[V]) At(i int) (uint64, V) {
	return h.s[i].k, h.s[i].v
}

func (h *Heap[V]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h.s[j].k >= h.s[i].k {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		j = i
	}
}

func (h *Heap[V]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.s[j2].k < h.s[j1].k {
			j = j2 // = 2*i + 2  // right child
		}
		if h.s[j].k >= h.s[i].k {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		i = j
	}
}
