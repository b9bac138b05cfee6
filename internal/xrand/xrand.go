// Package xrand provides a small, fast, deterministic random number
// generator plus the handful of distributions the synthetic workload
// generators need (geometric, Zipf).
//
// The simulator must be bit-for-bit reproducible for a given seed so that
// experiments are comparable across designs: every design point of an
// experiment replays exactly the same instruction stream. A private
// generator (rather than math/rand's global state) guarantees that two
// generators seeded identically produce identical streams regardless of
// what else the process does.
package xrand

import "math"

// RNG is a 64-bit xorshift* pseudo random number generator. The zero value
// is not usable; construct with New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is replaced with a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &RNG{state: seed}
	// Warm up so that low-entropy seeds (1, 2, 3...) diverge quickly.
	for i := 0; i < 8; i++ {
		r.Uint64()
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p (support 1, 2, 3, ...; mean 1/p). p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric probability out of range")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	// Inverse transform sampling; guard against log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := int(math.Ceil(math.Log(u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Zipf draws from a bounded Zipf distribution over [0, n) with exponent s,
// implemented via rejection-free inverse CDF approximation. It favours small
// indices; s=0 degenerates to uniform.
type Zipf struct {
	n    int
	s    float64
	rng  *RNG
	cdf  []float64 // cumulative weights, length n
	norm float64
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0 using rng.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: Zipf with negative exponent")
	}
	z := &Zipf{n: n, s: s, rng: rng, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	z.norm = sum
	return z
}

// Next returns the next Zipf-distributed index in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64() * z.norm
	// Binary search the CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
