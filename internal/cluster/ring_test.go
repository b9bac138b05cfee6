package cluster

import (
	"fmt"
	"math"
	"testing"

	"srlproc/internal/xrand"
)

func TestRingStableAndComplete(t *testing.T) {
	members := []string{"w1:8080", "w2:8080", "w3:8080"}
	a := NewRing(members)
	b := NewRing([]string{"w3:8080", "w1:8080", "w2:8080", "w1:8080"}) // order + dup insensitive
	counts := map[string]int{}
	for fp := uint64(0); fp < 4096; fp++ {
		h := fp * 0x9e3779b97f4a7c15 // spread the probe keys over the ring
		oa, ok := a.Owner(h)
		if !ok {
			t.Fatal("owner not found")
		}
		ob, _ := b.Owner(h)
		if oa != ob {
			t.Fatalf("ring not stable: %q vs %q for %x", oa, ob, h)
		}
		counts[oa]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns nothing: %v", m, counts)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"a", "b", "c"})
	reduced := NewRing([]string{"a", "c"})
	moved := 0
	const n = 4096
	for fp := uint64(0); fp < n; fp++ {
		h := fp * 0x9e3779b97f4a7c15
		before, _ := full.Owner(h)
		after, _ := reduced.Owner(h)
		if before != "b" && before != after {
			t.Fatalf("point %x moved %s -> %s though its owner survived", h, before, after)
		}
		if before == "b" {
			moved++
		}
	}
	// The property that matters is that b owned a real share (its points
	// moved) and nothing else moved (checked above); TestRingSharesEven
	// checks how fair the split is.
	if moved == 0 || moved == n {
		t.Fatalf("b owned %d of %d points", moved, n)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if _, ok := r.Owner(42); ok {
		t.Fatal("empty ring returned an owner")
	}
	if got := len(NewRing([]string{"", "x"}).Members()); got != 1 {
		t.Fatalf("blank member not dropped: %d members", got)
	}
}

func TestRingMembersSorted(t *testing.T) {
	r := NewRing([]string{"z", "a", "m"})
	got := fmt.Sprint(r.Members())
	if got != "[a m z]" {
		t.Fatalf("members = %s", got)
	}
}

// TestRingSharesEven: at ringReplicas, each member of these two- and
// three-worker sets owns within 3 points of an even share of 100,000
// random fingerprints. Raw FNV-1a placement at 64 replicas gave w1 97.0%
// against w2, cluster-smoke's first worker 64.1%, and the three URL-named
// workers 23.4, 32.6 and 44.0%.
func TestRingSharesEven(t *testing.T) {
	for _, members := range [][]string{
		{"w1", "w2"},
		{"127.0.0.1:18181", "127.0.0.1:18182"}, // cluster-smoke's workers
		{"w1:8080", "w2:8080", "w3:8080"},
		{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"},
	} {
		r := NewRing(members)
		owned := map[string]int{}
		rng := xrand.New(1)
		const n = 100_000
		for i := 0; i < n; i++ {
			o, _ := r.Owner(rng.Uint64())
			owned[o]++
		}
		even := 100 / float64(len(members))
		shares := make([]float64, len(members))
		for i, m := range members {
			shares[i] = 100 * float64(owned[m]) / n
			if math.Abs(shares[i]-even) > 3 {
				t.Errorf("%s owns %.1f%% of the keyspace, more than 3 points off %.1f%%", m, shares[i], even)
			}
		}
		t.Logf("%v: %.1f%%", members, shares)
	}
}
