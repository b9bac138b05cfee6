package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	n := 100_000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	n := 200_000
	sum := 0
	for i := 0; i < n; i++ {
		v := r.Geometric(0.25)
		if v < 1 {
			t.Fatalf("geometric sample %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("geometric mean %v, want ~4", mean)
	}
}

func TestGeometricP1(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("no skew: rank0=%d rank50=%d", counts[0], counts[50])
	}
	if counts[0] <= 4*counts[99] {
		t.Fatalf("weak skew: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfUniformWhenS0(t *testing.T) {
	r := New(17)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100_000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10_000) > 600 {
			t.Fatalf("s=0 not uniform: bucket %d has %d", i, c)
		}
	}
}
