// Package bpred implements the baseline machine's branch direction
// predictors: a gshare predictor, a perceptron predictor, and the
// gshare-perceptron hybrid with a chooser that Table 1 of the paper
// specifies (64K gshare entries, 256 perceptrons).
//
// Each predictor keeps its own global history, so Update must be called for
// every predicted branch, in program order, with the PC passed to Predict.
package bpred

// --- gshare ---

// Gshare is the classic global-history XOR-indexed two-bit-counter scheme.
type Gshare struct {
	// table packs the 2-bit saturating counters four to a byte, counter i
	// in bits 2*(i%4) and up of byte i/4.
	table   []uint8
	history uint64
	histLen uint
	mask    uint64
}

// NewGshare creates a gshare predictor with entries counters (power of two)
// and history length histLen bits.
func NewGshare(entries int, histLen uint) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: gshare entries must be a positive power of two")
	}
	g := &Gshare{
		table:   make([]uint8, (entries+3)/4),
		histLen: histLen,
		mask:    uint64(entries - 1),
	}
	for i := range g.table {
		g.table[i] = 0x55 // every counter weakly not-taken (01)
	}
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// counter returns counter i's byte and the counter's shift within it.
func (g *Gshare) counter(i uint64) (*uint8, uint) {
	return &g.table[i>>2], uint(i&3) * 2
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	b, sh := g.counter(g.index(pc))
	return *b>>sh&3 >= 2
}

// Update trains the predictor with the branch's outcome.
func (g *Gshare) Update(pc uint64, taken bool) {
	b, sh := g.counter(g.index(pc))
	g.train(b, sh, taken)
}

// train moves the counter at bit sh of *b toward the outcome and shifts the
// outcome into the history.
func (g *Gshare) train(b *uint8, sh uint, taken bool) {
	c := *b >> sh & 3
	if taken {
		if c < 3 {
			*b += 1 << sh
		}
	} else {
		if c > 0 {
			*b -= 1 << sh
		}
	}
	g.history = ((g.history << 1) | b2u(taken)) & ((1 << g.histLen) - 1)
}

// --- perceptron ---

// Perceptron is Jiménez & Lin's perceptron predictor: per-PC weight vectors
// dotted with the global history register.
type Perceptron struct {
	// weights holds every row in one array, each its bias weight first,
	// then one weight per history bit; row returns a branch's span.
	weights   []int8
	history   []int8 // +1 taken, -1 not taken
	threshold int32
	mask      uint64
}

// NewPerceptron creates a predictor with rows weight vectors (power of two)
// over histLen history bits.
func NewPerceptron(rows int, histLen int) *Perceptron {
	if rows <= 0 || rows&(rows-1) != 0 {
		panic("bpred: perceptron rows must be a positive power of two")
	}
	p := &Perceptron{
		weights:   make([]int8, rows*(histLen+1)), // +1 per row for the bias weight
		history:   make([]int8, histLen),
		threshold: int32(1.93*float64(histLen) + 14), // standard training threshold
		mask:      uint64(rows - 1),
	}
	for i := range p.history {
		p.history[i] = -1
	}
	return p
}

// row returns the weight vector of the branch at pc.
func (p *Perceptron) row(pc uint64) []int8 {
	n := len(p.history) + 1
	lo := int((pc>>2)&p.mask) * n
	return p.weights[lo : lo+n]
}

// output dots the weight vector w with the history.
func (p *Perceptron) output(w []int8) int32 {
	y := int32(w[0]) // bias
	for i, h := range p.history {
		y += int32(w[i+1]) * int32(h)
	}
	return y
}

// Predict returns the predicted direction for the branch at pc.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(p.row(pc)) >= 0 }

// Update trains the predictor with the branch's outcome.
func (p *Perceptron) Update(pc uint64, taken bool) {
	w := p.row(pc)
	p.train(w, p.output(w), taken)
}

// train adjusts the weight vector w, whose output was y, toward the outcome
// when y mispredicted or fell within the threshold, and shifts the outcome
// into the history.
func (p *Perceptron) train(w []int8, y int32, taken bool) {
	pred := y >= 0
	t := int32(-1)
	if taken {
		t = 1
	}
	if pred != taken || abs32(y) <= p.threshold {
		w[0] = satAdd(w[0], t)
		for i, h := range p.history {
			w[i+1] = satAdd(w[i+1], t*int32(h))
		}
	}
	copy(p.history, p.history[1:])
	if taken {
		p.history[len(p.history)-1] = 1
	} else {
		p.history[len(p.history)-1] = -1
	}
}

// --- hybrid ---

// Hybrid combines gshare and perceptron with a per-PC two-bit chooser,
// matching the "gshare-perceptron hybrid" of Table 1.
type Hybrid struct {
	g       *Gshare
	p       *Perceptron
	chooser []uint8
	mask    uint64
}

// NewHybrid creates the Table 1 hybrid: a 64K-entry gshare and 256
// perceptrons, with a 4K-entry chooser.
func NewHybrid() *Hybrid {
	return NewHybridSized(64*1024, 16, 256, 32, 4096)
}

// NewHybridSized creates a hybrid with explicit component sizes.
func NewHybridSized(gshareEntries int, gshareHist uint, perceptrons, percHist, chooserEntries int) *Hybrid {
	if chooserEntries <= 0 || chooserEntries&(chooserEntries-1) != 0 {
		panic("bpred: chooser entries must be a positive power of two")
	}
	h := &Hybrid{
		g:       NewGshare(gshareEntries, gshareHist),
		p:       NewPerceptron(perceptrons, percHist),
		chooser: make([]uint8, chooserEntries),
		mask:    uint64(chooserEntries - 1),
	}
	for i := range h.chooser {
		h.chooser[i] = 2 // weakly prefer perceptron
	}
	return h
}

// Predict returns the predicted direction for the branch at pc.
func (h *Hybrid) Predict(pc uint64) bool {
	if h.chooser[(pc>>2)&h.mask] >= 2 {
		return h.p.Predict(pc)
	}
	return h.g.Predict(pc)
}

// Update trains the predictor with the branch's outcome.
func (h *Hybrid) Update(pc uint64, taken bool) { h.PredictAndTrain(pc, taken) }

// PredictAndTrain returns Predict(pc) and then trains the predictor as
// Update(pc, taken) does, computing each component's prediction once: one
// gshare index and one perceptron dot product per branch.
func (h *Hybrid) PredictAndTrain(pc uint64, taken bool) bool {
	gb, gsh := h.g.counter(h.g.index(pc))
	gp := *gb>>gsh&3 >= 2
	w := h.p.row(pc)
	y := h.p.output(w)
	pp := y >= 0
	i := (pc >> 2) & h.mask
	c := h.chooser[i]
	pred := gp
	if c >= 2 {
		pred = pp
	}
	// Train chooser toward whichever component was right (when they differ).
	if pp == taken && gp != taken && c < 3 {
		h.chooser[i] = c + 1
	} else if gp == taken && pp != taken && c > 0 {
		h.chooser[i] = c - 1
	}
	h.g.train(gb, gsh, taken)
	h.p.train(w, y, taken)
	return pred
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// satAdd adds b to the 8-bit weight a, saturating at ±127.
func satAdd(a int8, b int32) int8 {
	s := int32(a) + b
	const lim = 127
	if s > lim {
		return lim
	}
	if s < -lim {
		return -lim
	}
	return int8(s)
}
