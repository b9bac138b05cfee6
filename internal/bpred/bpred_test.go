package bpred

import (
	"bytes"
	"slices"
	"testing"

	"srlproc/internal/xrand"
)

// predictor is what the accuracy tests drive: Gshare, Perceptron or Hybrid.
type predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// train runs pred over a synthetic outcome stream and returns accuracy.
func train(p predictor, outcomes func(i int) (pc uint64, taken bool), n int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(n)
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(1024, 8)
	acc := train(g, func(i int) (uint64, bool) { return 0x400, true }, 1000)
	if acc < 0.99 {
		t.Fatalf("always-taken accuracy %v", acc)
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	g := NewGshare(4096, 8)
	acc := train(g, func(i int) (uint64, bool) { return 0x400, i%2 == 0 }, 4000)
	if acc < 0.95 {
		t.Fatalf("alternating-pattern accuracy %v", acc)
	}
}

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron(256, 32)
	acc := train(p, func(i int) (uint64, bool) { return uint64(0x400 + (i%8)*4), (i % 8) < 6 }, 8000)
	if acc < 0.95 {
		t.Fatalf("per-PC bias accuracy %v", acc)
	}
}

func TestPerceptronLearnsCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: perfectly
	// predictable from one bit of global history.
	p := NewPerceptron(256, 16)
	prevA := false
	acc := train(p, func(i int) (uint64, bool) {
		if i%2 == 0 {
			prevA = (i/2)%3 == 0
			return 0x100, prevA
		}
		return 0x200, prevA
	}, 20_000)
	if acc < 0.9 {
		t.Fatalf("correlated accuracy %v", acc)
	}
}

func TestHybridAtLeastBias(t *testing.T) {
	h := NewHybrid()
	acc := train(h, func(i int) (uint64, bool) {
		pc := uint64(0x1000 + (i%32)*4)
		return pc, (i % 32) != 5 // one rarely-not-taken site among taken ones
	}, 50_000)
	if acc < 0.95 {
		t.Fatalf("hybrid accuracy %v", acc)
	}
}

func TestHybridChooserPrefersBetter(t *testing.T) {
	// A pure-bias stream: both components learn it; the hybrid must too.
	h := NewHybrid()
	acc := train(h, func(i int) (uint64, bool) { return 0x40, true }, 2000)
	if acc < 0.99 {
		t.Fatalf("hybrid bias accuracy %v", acc)
	}
}

func TestPredictorsDeterministic(t *testing.T) {
	mk := func() predictor { return NewHybrid() }
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		pc := uint64(0x100 + (i%64)*4)
		taken := (i*i)%7 < 3
		if a.Predict(pc) != b.Predict(pc) {
			t.Fatalf("divergence at %d", i)
		}
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewGshare(1000, 8) },    // not a power of two
		func() { NewPerceptron(100, 8) }, // not a power of two
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Fatal("invalid size did not panic")
		}()
	}
}

// TestSatAddSaturatesAt127: perceptron weights are stored in 8 bits, so a
// weight at the ±127 clamp stays there instead of wrapping.
func TestSatAddSaturatesAt127(t *testing.T) {
	for _, c := range []struct {
		a    int8
		b    int32
		want int8
	}{
		{0, 1, 1}, {5, -1, 4}, {126, 1, 127}, {127, 1, 127}, {-126, -1, -127}, {-127, -1, -127},
	} {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// refGshare is the reference Gshare must match: one byte per counter.
type refGshare struct {
	table   []uint8
	history uint64
	histLen uint
	mask    uint64
}

func (g *refGshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

func (g *refGshare) predict(pc uint64) bool { return g.table[g.index(pc)] >= 2 }

func (g *refGshare) update(pc uint64, taken bool) {
	i := g.index(pc)
	if c := g.table[i]; taken && c < 3 {
		g.table[i] = c + 1
	} else if !taken && c > 0 {
		g.table[i] = c - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & ((1 << g.histLen) - 1)
}

// TestGshareMatchesByteTable steps seeded branch streams, biased per PC so
// counters saturate both ways, through Gshare and a reference with one
// byte per counter, at sizes from one counter to Table 1's 64K. Every
// prediction must agree, and after every update so must every counter
// (Table 1's size compares the updated counter, and all of them at the end).
func TestGshareMatchesByteTable(t *testing.T) {
	for _, size := range []struct {
		entries int
		hist    uint
	}{{1, 0}, {2, 1}, {4, 2}, {256, 6}, {64 * 1024, 16}} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := NewGshare(size.entries, size.hist)
			ref := &refGshare{table: make([]uint8, size.entries), histLen: size.hist, mask: uint64(size.entries - 1)}
			for i := range ref.table {
				ref.table[i] = 1
			}
			same := func(step int) {
				for i := range ref.table {
					if got := g.table[i/4] >> (2 * (i % 4)) & 3; got != ref.table[i] {
						t.Fatalf("%d entries, seed %d, step %d: counter %d is %d, reference %d",
							size.entries, seed, step, i, got, ref.table[i])
					}
				}
			}
			same(-1)
			rng := xrand.New(seed)
			for step := 0; step < 20_000; step++ {
				pc := 0x1000 + 4*rng.Uint64n(512)
				taken := rng.Bool(float64(pc>>2&7) / 7) // bias 0 to 1 by PC
				if g.Predict(pc) != ref.predict(pc) {
					t.Fatalf("%d entries, seed %d, step %d: predictions differ", size.entries, seed, step)
				}
				i := ref.index(pc)
				g.Update(pc, taken)
				ref.update(pc, taken)
				if size.entries <= 256 {
					same(step)
				} else if got := g.table[i/4] >> (2 * (i % 4)) & 3; got != ref.table[i] {
					t.Fatalf("%d entries, seed %d, step %d: counter %d is %d, reference %d",
						size.entries, seed, step, i, got, ref.table[i])
				}
			}
			same(20_000)
		}
	}
}

// twoCallHybrid drives a Hybrid as Predict then Update did before the two
// were fused: Update has both components predict again, and each
// component's Update computes its own prediction a third time.
type twoCallHybrid struct{ *Hybrid }

func (h twoCallHybrid) predict(pc uint64) bool {
	if h.chooser[(pc>>2)&h.mask] >= 2 {
		return h.p.Predict(pc)
	}
	return h.g.Predict(pc)
}

func (h twoCallHybrid) update(pc uint64, taken bool) {
	gp := h.g.Predict(pc)
	pp := h.p.Predict(pc)
	i := (pc >> 2) & h.mask
	c := h.chooser[i]
	if pp == taken && gp != taken && c < 3 {
		h.chooser[i] = c + 1
	} else if gp == taken && pp != taken && c > 0 {
		h.chooser[i] = c - 1
	}
	h.g.Update(pc, taken)
	h.p.Update(pc, taken)
}

// TestPredictAndTrainMatchesTwoCalls steps seeded branch streams, biased
// per PC and correlated with the previous branch, through PredictAndTrain
// and through the two-call form, at Table 1's size and at one small enough
// that branches alias. Every prediction must agree, and after every branch
// so must the gshare table and history, the chooser, and the perceptron
// weights and history.
func TestPredictAndTrainMatchesTwoCalls(t *testing.T) {
	for _, mk := range []func() *Hybrid{
		NewHybrid,
		func() *Hybrid { return NewHybridSized(64, 6, 4, 8, 16) },
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			fused, ref := mk(), twoCallHybrid{mk()}
			rng := xrand.New(seed)
			prev := false
			for step := 0; step < 20_000; step++ {
				pc := 0x1000 + 4*rng.Uint64n(512)
				taken := rng.Bool(float64(pc>>2&7) / 7) // bias 0 to 1 by PC
				if pc>>2&1 == 1 {
					taken = prev // odd sites repeat the previous outcome
				}
				prev = taken
				want := ref.predict(pc)
				ref.update(pc, taken)
				if got := fused.PredictAndTrain(pc, taken); got != want {
					t.Fatalf("seed %d, step %d: predicted %v, two calls %v", seed, step, got, want)
				}
				switch {
				case !bytes.Equal(fused.g.table, ref.g.table) || fused.g.history != ref.g.history:
					t.Fatalf("seed %d, step %d: gshare state differs", seed, step)
				case !bytes.Equal(fused.chooser, ref.chooser):
					t.Fatalf("seed %d, step %d: chooser differs", seed, step)
				case !slices.Equal(fused.p.weights, ref.p.weights) || !slices.Equal(fused.p.history, ref.p.history):
					t.Fatalf("seed %d, step %d: perceptron state differs", seed, step)
				}
			}
		}
	}
}
