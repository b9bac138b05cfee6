package trace

import (
	"math/bits"

	"srlproc/internal/isa"
	"srlproc/internal/xrand"
)

// Generator produces an unbounded dynamic micro-op stream for one suite.
// It is deterministic for a given (profile, seed) pair, so every store
// queue design in an experiment replays an identical instruction stream.
type Generator struct {
	prof Profile
	rng  *xrand.RNG

	program []tmpl
	pc      int // index of next template

	heapZipf *xrand.Zipf

	// Phased heap working set: accesses target a sliding window of the
	// heap; the window steps to fresh (cold) lines every PhaseUops
	// micro-ops. The first accesses of a phase sweep the new window's cold
	// lines densely (a working-set change touches its data quickly), which
	// clusters the long-latency misses into overlapping bursts — the
	// memory-level parallelism latency tolerant processors exploit.
	phaseOffset uint64
	sweepLeft   int
	// lastAddrSweep marks that the most recent heap address came from the
	// cold sweep (it will miss to memory); the generator roots a long-lived
	// dependence chain at such loads so the misses that actually poison
	// grow realistic forward slices.
	lastAddrSweep bool

	seq uint64

	// live is the set of registers (bit r = register r) holding values
	// data-dependent on a recent load (the raw material of miss slices);
	// chainExp[r] is the sequence number at which r's membership expires.
	// Expiry only stops further chain *extension*; the register stays in
	// taint (unsafe for "independent" reads) until overwritten, because in
	// the simulator a poisoned value stays poisoned until the slice
	// re-executes. live is always a subset of taint.
	chainExp [isa.NumArchRegs]uint64
	live     uint32
	taint    uint32

	nextReg int8

	storeRing  [storeRingN]storeRec // recent stores, for forwarding loads
	storeCount int                  // total stores generated
	storeHead  int                  // index of most recent store

	streamPositions []uint64 // per-stream-site advancing pointers
}

type storeRec struct {
	seq  uint64
	addr uint64
	size uint8
}

// template kinds for branches.
const (
	brBiased = iota
	brPattern
	brNoisy
)

// tmpl is one static program site, 24 bytes. Its PC is derived from its
// index in the program (progBase + 4*index).
type tmpl struct {
	brBias float64 // for biased
	stream int32   // stream site id when region==regionStream
	class  isa.Class
	region uint8 // regionHot, regionHeap or regionStream
	fwd    bool
	brKind uint8
	// brPer is a patterned branch's period (16-63) and brPos its execution
	// count modulo brPer: taken except when brPos wraps to 0.
	brPer uint8
	brPos uint8
	// addrChain: this load's address depends on a chain register
	// (pointer chasing), deepening slices.
	addrChain bool
	// acq/rel: release-consistency annotations for load/store sites.
	acq bool
	rel bool
}

const (
	regionHot = iota
	regionHeap
	regionStream
)

// Memory layout of the synthetic address space (all regions disjoint).
const (
	hotBase    = 0x0000_1000_0000
	heapBase   = 0x0000_4000_0000
	streamBase = 0x0000_8000_0000
	progBase   = 0x0000_0040_0000
	programLen = 4096
	storeRingN = 64

	// sharedHotBase is the globally shared segment multicore workloads
	// read and write; coreStride separates per-core private regions.
	sharedHotBase = 0x0000_0100_0000
	coreStride    = uint64(1) << 40
)

// NewGenerator builds a generator for profile prof seeded with seed.
func NewGenerator(prof Profile, seed uint64) *Generator {
	g := &Generator{
		prof: prof,
		rng:  xrand.New(seed ^ uint64(prof.Suite+1)*0x9E37),
	}
	zipfSpan := prof.HeapLines
	if prof.PhaseUops > 0 && prof.PhaseLines > 0 {
		zipfSpan = prof.PhaseLines
	}
	g.heapZipf = xrand.NewZipf(g.rng, zipfSpan, prof.ZipfS)
	g.buildProgram()
	return g
}

// buildProgram expands the profile into a static program so that PCs recur
// and the branch predictor and store-sets predictor can train.
func (g *Generator) buildProgram() {
	p := g.prof
	g.program = make([]tmpl, programLen)
	// fenceFrac precedes every other threshold so that a zero knob leaves
	// all thresholds — and the RNG draw sequence — exactly as before.
	fenceFrac := float64(p.FencePer1K) / 1000
	for i := range g.program {
		var t tmpl
		r := g.rng.Float64()
		switch {
		case fenceFrac > 0 && r < fenceFrac:
			t.class = isa.Fence
		case r < fenceFrac+p.LoadFrac:
			t.class = isa.Load
			t.fwd = g.rng.Bool(p.FwdFrac)
			t.addrChain = !t.fwd && g.rng.Bool(p.ChainProb*0.4)
			t.region, t.stream = g.pickRegion()
			if p.AcquireFrac > 0 {
				t.acq = g.rng.Bool(p.AcquireFrac)
			}
		case r < fenceFrac+p.LoadFrac+p.StoreFrac:
			t.class = isa.Store
			t.region, t.stream = g.pickRegion()
			if p.ReleaseFrac > 0 {
				t.rel = g.rng.Bool(p.ReleaseFrac)
			}
		case r < fenceFrac+p.LoadFrac+p.StoreFrac+p.BranchFrac:
			t.class = isa.Branch
			br := g.rng.Float64()
			switch {
			case br < p.BranchNoise:
				// Data-dependent branches: weakly biased, the predictor can
				// learn only the bias.
				t.brKind = brNoisy
			case br < p.BranchNoise+0.10:
				// Loop back-edges: taken for per-1 iterations, then one
				// not-taken (run-length behaviour counters learn well).
				t.brKind = brPattern
				t.brPer = uint8(16 + g.rng.Intn(48))
			default:
				t.brKind = brBiased
				if g.rng.Bool(0.7) {
					t.brBias = 0.99
				} else {
					t.brBias = 0.01
				}
			}
		default:
			if g.rng.Bool(p.FPFrac) {
				switch g.rng.Intn(3) {
				case 0:
					t.class = isa.FPAdd
				case 1:
					t.class = isa.FPMul
				default:
					t.class = isa.FPDiv
				}
			} else {
				if g.rng.Bool(0.1) {
					t.class = isa.IntMul
				} else {
					t.class = isa.IntALU
				}
			}
		}
		g.program[i] = t
	}
}

func (g *Generator) pickRegion() (region uint8, stream int32) {
	r := g.rng.Float64()
	switch {
	case r < g.prof.HotFrac:
		return regionHot, 0
	case r < g.prof.HotFrac+g.prof.StreamFrac:
		return regionStream, int32(g.rng.Intn(maxInt(1, g.prof.NumStreams)))
	default:
		return regionHeap, 0
	}
}

// streamAddr returns the next address of a unit-stride stream site,
// lazily initialising the per-site pointers.
func (g *Generator) streamAddr(site int32) uint64 {
	if g.streamPositions == nil {
		g.streamPositions = make([]uint64, maxInt(1, g.prof.NumStreams))
		for i := range g.streamPositions {
			g.streamPositions[i] = g.coreOff() + streamBase + uint64(i)<<24
		}
	}
	a := g.streamPositions[site]
	g.streamPositions[site] += 8 // sequential word walk: 8 accesses per line
	// Wrap each stream within a 16MB window so footprints stay bounded.
	base := g.coreOff() + streamBase + uint64(site)<<24
	if g.streamPositions[site]-base >= 1<<24 {
		g.streamPositions[site] = base
	}
	return a
}

// coreOff shifts private regions into the owning core's address space.
func (g *Generator) coreOff() uint64 {
	return uint64(g.prof.CoreID) * coreStride
}

func (g *Generator) address(t *tmpl) uint64 {
	switch t.region {
	case regionHot:
		if g.prof.SharedHotFrac > 0 && g.rng.Bool(g.prof.SharedHotFrac) {
			return sharedHotBase + uint64(g.rng.Intn(g.prof.HotLines))*isa.CacheLineSize + uint64(g.rng.Intn(8))*8
		}
		return g.coreOff() + hotBase + uint64(g.rng.Intn(g.prof.HotLines))*isa.CacheLineSize + uint64(g.rng.Intn(8))*8
	case regionStream:
		return g.streamAddr(t.stream)
	default:
		var line uint64
		off := g.coreOff()
		g.lastAddrSweep = false
		if g.sweepLeft > 0 {
			g.lastAddrSweep = true
			// Cold sweep of the fresh window, stride 3 lines (coprime with
			// the window size) so the stream prefetcher cannot hide it.
			k := uint64(g.prof.PhaseLines - g.sweepLeft)
			line = (g.phaseOffset + (k*3)%uint64(g.prof.PhaseLines)) % uint64(g.prof.HeapLines)
			g.sweepLeft--
		} else {
			line = uint64(g.heapZipf.Next())
			if g.prof.PhaseUops > 0 && g.prof.PhaseLines > 0 {
				line = (g.phaseOffset + line) % uint64(g.prof.HeapLines)
			}
		}
		return off + heapBase + line*isa.CacheLineSize + uint64(g.rng.Intn(8))*8
	}
}

// regBit is register r's bit in the live and taint sets.
func regBit(r int8) uint32 { return 1 << uint(r) }

func (g *Generator) pruneChains() {
	for m := g.live; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		if g.chainExp[r] <= g.seq {
			g.live &^= 1 << uint(r)
		}
	}
}

// chainReg returns a live chain register, preferring the youngest-expiring
// (deepest) chain: long-lived chains are rooted at cold-sweep loads — the
// ones that actually miss — so dependent consumers concentrate on real
// slices. Scanning register order keeps selection deterministic.
func (g *Generator) chainReg() (int8, bool) {
	if g.live == 0 {
		return 0, false
	}
	// Prefer a sweep-rooted (deep) chain: its expiry lies beyond what a
	// normal joinChain could produce.
	deepBound := g.seq + 2*uint64(g.prof.ChainDecay)
	for m := g.live; m != 0; m &= m - 1 {
		if r := bits.TrailingZeros32(m); g.chainExp[r] > deepBound {
			return int8(r), true
		}
	}
	// Otherwise the first live register at or cyclically after seq%32.
	start := int(g.seq % isa.NumArchRegs)
	r := (start + bits.TrailingZeros32(bits.RotateLeft32(g.live, -start))) % isa.NumArchRegs
	return int8(r), true
}

// allocReg picks a destination register, preferring dead values — tainted
// registers whose chain membership has expired — the way register
// allocation reuses registers as soon as values die. Rapid overwrite of
// dead chain values keeps the tainted fraction of the register file low,
// which in turn keeps miss slices bounded.
func (g *Generator) allocReg() int8 {
	if dead := g.taint &^ g.live; dead != 0 {
		return int8(bits.TrailingZeros32(dead))
	}
	g.nextReg = (g.nextReg + 1) % isa.NumArchRegs
	return g.nextReg
}

// cleanReg returns a register that is (very likely) not part of a live
// dependence chain. Keeping non-chain operations off chain registers is
// what bounds slice growth: in real code most values feed a handful of
// nearby consumers and then die, so a miss's forward slice is a bounded
// fraction of the window (Table 3), not an epidemic over the register file.
func (g *Generator) cleanReg() int8 {
	for try := 0; try < 6; try++ {
		r := int8(g.rng.Intn(isa.NumArchRegs))
		if g.taint&regBit(r) == 0 {
			return r
		}
	}
	return int8(g.rng.Intn(isa.NumArchRegs))
}

// maxLiveChain bounds the live chain set so the register file never
// saturates with in-flight dependent values (real code spills and kills
// values; a bounded live set is what keeps slices a bounded fraction of the
// window).
const maxLiveChain = 10

func (g *Generator) joinChain(reg int8) {
	g.taint |= regBit(reg)
	if bits.OnesCount32(g.live) >= maxLiveChain {
		return // value still poisonable, but chain stops growing
	}
	g.live |= regBit(reg)
	g.chainExp[reg] = g.seq + uint64(g.prof.ChainDecay)
}

// joinChainLong roots a chain with a much longer life, used for cold-sweep
// loads (the ones that miss to memory): their consumers form the slice. If
// the live set is full, the earliest-expiring chain is displaced, the
// lowest-numbered register on a tie — a miss root always gets a chain.
func (g *Generator) joinChainLong(reg int8) {
	if g.live&regBit(reg) == 0 && bits.OnesCount32(g.live) >= maxLiveChain {
		victim := bits.TrailingZeros32(g.live)
		for m := g.live & (g.live - 1); m != 0; m &= m - 1 {
			if r := bits.TrailingZeros32(m); g.chainExp[r] < g.chainExp[victim] {
				victim = r
			}
		}
		g.live &^= 1 << uint(victim)
	}
	g.live |= regBit(reg)
	g.taint |= regBit(reg)
	g.chainExp[reg] = g.seq + 6*uint64(g.prof.ChainDecay)
}

func (g *Generator) leaveChain(reg int8) {
	g.live &^= regBit(reg)
	g.taint &^= regBit(reg)
}

// Next produces the next micro-op in program order.
func (g *Generator) Next() isa.Uop {
	g.seq++
	if g.prof.PhaseUops > 0 && g.prof.PhaseLines > 0 && g.seq%uint64(g.prof.PhaseUops) == 0 {
		g.phaseOffset = (g.phaseOffset + uint64(g.prof.PhaseLines)) % uint64(g.prof.HeapLines)
		g.sweepLeft = g.prof.PhaseLines
	}
	g.pruneChains()
	ti := g.pc
	t := &g.program[ti]
	g.pc++
	if g.pc == len(g.program) {
		g.pc = 0
	}

	u := isa.Uop{Seq: g.seq, PC: progBase + uint64(ti)*4, Class: t.class, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}

	switch t.class {
	case isa.Fence:
		// Full barrier: no operands, no draws — sites are fixed at program
		// build time so zero-knob streams replay identically.

	case isa.Load:
		u.Size = 8
		u.Acq = t.acq
		if t.fwd && g.storeCount > 0 {
			avail := g.storeCount
			if avail > storeRingN {
				avail = storeRingN
			}
			d := g.rng.Geometric(g.prof.FwdDistGeoP)
			if d > avail {
				d = avail
			}
			idx := ((g.storeHead-(d-1))%storeRingN + storeRingN) % storeRingN
			rec := g.storeRing[idx]
			u.Addr = rec.addr
			u.Size = rec.size
			u.MemSeq = rec.seq
		} else {
			u.Addr = g.address(t)
		}
		if t.addrChain {
			if r, ok := g.chainReg(); ok {
				u.Src1 = r
			} else {
				u.Src1 = g.cleanReg()
			}
		} else {
			u.Src1 = g.cleanReg()
		}
		u.Dst = g.allocReg()
		if g.lastAddrSweep {
			g.joinChainLong(u.Dst) // a miss root: its slice grows for a while
		} else {
			g.joinChain(u.Dst)
		}

	case isa.Store:
		u.Size = 8
		u.Rel = t.rel
		u.Addr = g.address(t)
		u.Src1 = g.cleanReg() // address base
		if g.rng.Bool(g.prof.StoreChainProb) {
			if r, ok := g.chainReg(); ok {
				u.Src2 = r
			} else {
				u.Src2 = g.cleanReg()
			}
		} else {
			u.Src2 = g.cleanReg()
		}
		g.storeHead = (g.storeHead + 1) % storeRingN
		g.storeRing[g.storeHead] = storeRec{seq: g.seq, addr: u.Addr, size: u.Size}
		g.storeCount++

	case isa.Branch:
		// Branches occasionally test chain values (they are sinks: no
		// destination, so they end chains but can join slices).
		if g.rng.Bool(0.15) {
			if r, ok := g.chainReg(); ok {
				u.Src1 = r
			} else {
				u.Src1 = g.cleanReg()
			}
		} else {
			u.Src1 = g.cleanReg()
		}
		switch t.brKind {
		case brNoisy:
			u.Taken = g.rng.Bool(0.7) // data-dependent, weakly biased
		case brPattern:
			if t.brPos++; t.brPos == t.brPer {
				t.brPos = 0
			}
			u.Taken = t.brPos != 0
		default:
			u.Taken = g.rng.Bool(t.brBias)
		}

	default:
		if g.rng.Bool(g.prof.ChainProb) {
			if r, ok := g.chainReg(); ok {
				u.Src1 = r
				if g.rng.Bool(0.4) {
					u.Src2 = g.cleanReg()
				}
				u.Dst = g.allocReg()
				g.joinChain(u.Dst) // chain propagates through the op
				break
			}
		}
		u.Src1 = g.cleanReg()
		if g.rng.Bool(0.5) {
			u.Src2 = g.cleanReg()
		}
		u.Dst = g.allocReg()
		g.leaveChain(u.Dst) // overwritten with a non-chain value
	}
	return u
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
