// Package check fuzzes the simulator against the differential oracle
// (internal/oracle). It samples random design points — store designs
// crossed with structure sizes, hash kinds, overflow policies and memory
// knobs — pairs each with a recorded slice of a synthetic workload, runs
// the pair oracle-checked, and shrinks any divergence-reproducing stream
// to a minimal replayable trace (see Minimize). The package backs the
// native `go test` fuzz target (FuzzOracle), the figure-sweep oracle
// tests, and the `make fuzz` budgeted run.
package check

import (
	"context"

	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/trace"
	"srlproc/internal/xrand"
)

// Point is one fuzz case: a full design point plus the workload suite
// whose profile parameterises it.
type Point struct {
	Cfg   core.Config
	Suite trace.Suite
}

// Fuzz cases run small so a single fuzz budget covers many design points;
// the stream still spans several checkpoint generations, SRL wraps and
// redo episodes at these sizes.
const (
	fuzzWarmupUops = 1_000
	fuzzRunUops    = 6_000
)

var allDesigns = []core.StoreDesign{
	core.DesignBaseline,
	core.DesignLargeSTQ,
	core.DesignHierarchical,
	core.DesignSRL,
	core.DesignFilteredSTQ,
}

// SamplePoint draws a random design point and workload. Every sampled
// configuration passes core.Config.Validate: the LCF stays a power of two,
// indexed forwarding implies the LCF, and the window cap tracks the
// checkpoint interval.
func SamplePoint(rng *xrand.RNG) Point {
	suites := trace.AllSuites()
	suite := suites[rng.Intn(len(suites))]
	design := allDesigns[rng.Intn(len(allDesigns))]
	return samplePointWith(rng, design, suite)
}

// samplePointWith fills in everything below the design/suite choice. The
// sizes deliberately skew small: an 8-entry SRL or 64-entry L2 STQ wraps,
// overflows and redoes thousands of times in a 7K-uop run, which is where
// boundary bugs live.
func samplePointWith(rng *xrand.RNG, design core.StoreDesign, suite trace.Suite) Point {
	cfg := core.DefaultConfig(design)
	cfg.Seed = rng.Uint64()
	cfg.WarmupUops = fuzzWarmupUops
	cfg.RunUops = fuzzRunUops
	cfg.Check = true

	cfg.CkptInterval = pick(rng, 64, 192, 448)
	cfg.Checkpoints = pick(rng, 2, 4, 8)
	cfg.WindowCap = pick(rng, 1024, 2048, 8192)
	if min := cfg.CkptInterval * 2; cfg.WindowCap < min {
		cfg.WindowCap = min
	}

	switch design {
	case core.DesignLargeSTQ, core.DesignFilteredSTQ:
		cfg.STQSize = pick(rng, 128, 256, 512, 1024)
	case core.DesignHierarchical:
		cfg.L2STQSize = pick(rng, 64, 256, 1024)
		cfg.MTBSize = pick(rng, 256, 1024)
	case core.DesignSRL:
		cfg.SRLSize = pick(rng, 8, 32, 128, 1024)
		cfg.UseLCF = rng.Bool(0.75)
		if cfg.UseLCF {
			cfg.LCFSize = pick(rng, 64, 256, 2048)
			if rng.Bool(0.5) {
				cfg.LCFHash = lsq.HashLAB
			} else {
				cfg.LCFHash = lsq.Hash3PAX
			}
			cfg.LCFCounterBits = uint(pick(rng, 2, 6))
			cfg.UseIndexedFwd = rng.Bool(0.5)
		} else {
			cfg.UseIndexedFwd = false
		}
		cfg.UseFC = rng.Bool(0.8)
		if cfg.UseFC {
			cfg.FCSize = pick(rng, 64, 256)
			cfg.FCAssoc = pick(rng, 2, 4)
		}
		cfg.LoadBufAssoc = pick(rng, 4, 8, 1024)
		if rng.Bool(0.5) {
			cfg.LoadBufPolicy = lsq.OverflowVictim
			cfg.LoadBufVictim = pick(rng, 4, 16)
		} else {
			cfg.LoadBufPolicy = lsq.OverflowViolate
		}
	}

	cfg.Mem.PrefetchOn = rng.Bool(0.5)
	cfg.Mem.MSHRs = pick(rng, 4, 32)
	cfg.SnoopsEnabled = rng.Bool(0.5)

	// Memory-ordering traffic (DESIGN.md §12): half the points carry
	// fences and acquire/release tags so the sync gates, the WAR bit rings
	// they ask and the oracle's ordering checks get fuzz coverage; the
	// other half keeps the historical zero-knob stream.
	if rng.Bool(0.5) {
		cfg.FencePer1K = pick(rng, 1, 4, 16)
		cfg.AcquireFrac = float64(pick(rng, 0, 10, 30)) / 100
		cfg.ReleaseFrac = float64(pick(rng, 0, 10, 30)) / 100
	}
	// Far-memory tier: a third of the points split lines across a
	// CXL-like latency band, sometimes with mid-run degradation.
	if rng.Bool(0.33) {
		cfg.Mem.FarFrac = float64(pick(rng, 25, 50)) / 100
		cfg.Mem.FarLatency = uint64(pick(rng, 1200, 2400))
		if rng.Bool(0.5) {
			cfg.Mem.FarDegradeAfter = uint64(pick(rng, 5_000, 20_000))
			cfg.Mem.FarDegradedLatency = 2 * cfg.Mem.FarLatency
		}
	}
	return Point{Cfg: cfg, Suite: suite}
}

// PointFromArgs derives a deterministic fuzz point from raw fuzz-engine
// arguments. The selectors pin the coarse axes (store design, workload
// suite) so the engine can explore them directly; seed drives every other
// knob through the sampler.
func PointFromArgs(seed uint64, designSel, profSel uint8) Point {
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + 0x1234_5678)
	suites := trace.AllSuites()
	suite := suites[int(profSel)%len(suites)]
	design := allDesigns[int(designSel)%len(allDesigns)]
	return samplePointWith(rng, design, suite)
}

func pick(rng *xrand.RNG, choices ...int) int {
	return choices[rng.Intn(len(choices))]
}

// Capture materialises n micro-ops of suite's synthetic workload — the
// recorded slice a checked run replays, so a divergence is immediately
// reproducible and minimizable.
func Capture(suite trace.Suite, seed uint64, n int) []isa.Uop {
	return captureProfile(trace.ProfileFor(suite), seed, n)
}

func captureProfile(p trace.Profile, seed uint64, n int) []isa.Uop {
	g := trace.NewGenerator(p, seed)
	uops := make([]isa.Uop, n)
	for i := range uops {
		uops[i] = g.Next()
	}
	return uops
}

// profileFor mirrors cfg's ordering knobs into suite's profile, exactly as
// core.New does — a captured slice must carry the same fences and
// acquire/release tags the live generator would emit.
func profileFor(cfg core.Config, suite trace.Suite) trace.Profile {
	p := trace.ProfileFor(suite)
	p.FencePer1K = cfg.FencePer1K
	p.AcquireFrac = cfg.AcquireFrac
	p.ReleaseFrac = cfg.ReleaseFrac
	return p
}

// CaptureFor sizes Capture for cfg: the committed budget plus two window
// capacities of fetch-ahead slack. The slice source loops if the machine
// somehow reads past that, so the bound only has to be roughly right.
func CaptureFor(cfg core.Config, suite trace.Suite) []isa.Uop {
	n := int(cfg.WarmupUops+cfg.RunUops) + 2*cfg.WindowCap
	return captureProfile(profileFor(cfg, suite), cfg.Seed, n)
}

// RunChecked simulates cfg over the recorded micro-op slice with the
// differential oracle enabled and returns the run's results (divergences
// included — they never abort the run).
func RunChecked(cfg core.Config, suite trace.Suite, uops []isa.Uop) (*core.Results, error) {
	cfg.Check = true
	c, err := core.NewFromSource(cfg, NewSliceSource(uops), profileFor(cfg, suite))
	if err != nil {
		return nil, err
	}
	return c.RunContext(context.Background())
}

// sliceSource replays an in-memory micro-op slice as a trace.Source with
// the same looping semantics as trace.Reader: when the slice is exhausted
// it restarts from the beginning with sequence numbers (and non-zero
// MemSeq producer references) shifted past the last delivered sequence,
// so the stream stays dense and monotonic forever.
type sliceSource struct {
	uops    []isa.Uop
	pos     int
	seqBase uint64
	lastSeq uint64
}

// NewSliceSource wraps uops as a looping trace.Source.
func NewSliceSource(uops []isa.Uop) trace.Source {
	return &sliceSource{uops: uops}
}

// Next implements trace.Source.
func (s *sliceSource) Next() isa.Uop {
	if len(s.uops) == 0 {
		s.lastSeq++
		return isa.Uop{Seq: s.lastSeq, Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dst: 0}
	}
	if s.pos == len(s.uops) {
		s.pos = 0
		s.seqBase = s.lastSeq
	}
	u := s.uops[s.pos]
	s.pos++
	u.Seq += s.seqBase
	if u.MemSeq != 0 {
		u.MemSeq += s.seqBase
	}
	s.lastSeq = u.Seq
	return u
}
