package bpred

import "testing"

// train runs pred over a synthetic outcome stream and returns accuracy.
func train(p Predictor, outcomes func(i int) (pc uint64, taken bool), n int) float64 {
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
	mk := func() Predictor { return NewHybrid() }
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
