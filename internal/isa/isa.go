// Package isa defines the micro-operation model the simulator executes.
//
// The paper's simulator executes IA32 micro-ops; that instruction set (and
// the traces driving it) is proprietary, so this reproduction defines a
// compact micro-op vocabulary carrying exactly the information the
// mechanisms under study consume: operation class (for latency and
// functional-unit routing), register dependences (for poison propagation and
// slice formation), memory address and size (for the store/load queues,
// caches and dependence predictor), and branch outcome (for the predictor
// and checkpoint machinery).
package isa

import "fmt"

// Class identifies the functional class of a micro-op.
type Class uint8

// Micro-op classes. Latencies follow a Pentium-4-equivalent unit mix
// (Table 1 of the paper).
const (
	IntALU Class = iota // 1-cycle integer op
	IntMul              // pipelined integer multiply
	FPAdd               // floating point add
	FPMul               // floating point multiply
	FPDiv               // unpipelined floating point divide
	Load                // memory load
	Store               // memory store
	Branch              // conditional branch
	Fence               // full memory ordering barrier
	NumClasses
)

// String returns the mnemonic for the class.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "int"
	case IntMul:
		return "imul"
	case FPAdd:
		return "fadd"
	case FPMul:
		return "fmul"
	case FPDiv:
		return "fdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Fence:
		return "fence"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Pool names one of the machine's per-class resource pools: a scheduler
// window, and for the integer and floating point pools a register file.
type Pool uint8

// Resource pools (Table 1's scheduler windows and register files).
const (
	PoolInt Pool = iota // integer scheduler window and register file
	PoolFP              // floating point scheduler window and register file
	PoolMem             // memory scheduler window (loads and stores; no register file)
	NumPools
)

// ClassInfo is one row of the class table: what the pipeline needs to
// know about a class to schedule it.
type ClassInfo struct {
	// Latency is the execution latency in cycles, excluding memory access
	// time for loads (the cache hierarchy supplies that).
	Latency uint64
	Sched   Pool // the scheduler window the uop waits in
	Regs    Pool // the register file a destination is allocated in
}

// classTable is the class table, indexed by Class.
var classTable = [NumClasses]ClassInfo{
	IntALU: {Latency: 1, Sched: PoolInt, Regs: PoolInt},
	IntMul: {Latency: 3, Sched: PoolInt, Regs: PoolInt},
	FPAdd:  {Latency: 4, Sched: PoolFP, Regs: PoolFP},
	FPMul:  {Latency: 6, Sched: PoolFP, Regs: PoolFP},
	FPDiv:  {Latency: 20, Sched: PoolFP, Regs: PoolFP},
	Load:   {Latency: 0, Sched: PoolMem, Regs: PoolInt}, // address generation folded into cache access
	Store:  {Latency: 1, Sched: PoolMem, Regs: PoolInt}, // address+data capture
	Branch: {Latency: 1, Sched: PoolInt, Regs: PoolInt},
	Fence:  {Latency: 1, Sched: PoolInt, Regs: PoolInt},
}

// Info returns the class's row of the class table. c must be a valid
// class (below NumClasses), as every decoded or generated uop's is.
func (c Class) Info() ClassInfo { return classTable[c] }

// Latency returns the execution latency in cycles for the class, excluding
// memory access time for loads (the cache hierarchy supplies that).
func (c Class) Latency() uint64 { return classTable[c].Latency }

// IsFP reports whether the class executes in the floating point cluster and
// uses FP registers.
func (c Class) IsFP() bool {
	return c == FPAdd || c == FPMul || c == FPDiv
}

// IsMem reports whether the class occupies the memory scheduler window.
func (c Class) IsMem() bool { return c == Load || c == Store }

// NumArchRegs is the size of the architectural register space the generator
// draws from. A single space is used for dependence purposes (loads feed FP
// ops and store data alike — what matters to the mechanisms under study is
// the dependence graph, not the register file split); the scheduler windows
// and physical register files are still split by operation class.
const NumArchRegs = 32

// NoReg marks an absent register operand.
const NoReg int8 = -1

// Uop is one micro-operation as produced by a workload generator.
//
// Src1/Src2/Dst are architectural register numbers (int or FP space chosen
// by Class), or NoReg. For loads, Dst receives memory data and Src1 is the
// address base. For stores, Src1 is the address base and Src2 the data
// source. MemSeq, for loads that truly depend on an earlier store, is the
// sequence number of that store (0 if none); the simulator uses it as ground
// truth to resolve forwarding and detect mispredicted dependences, exactly
// as an execution-driven simulator would observe the actual values.
//
// The four words come first and the eight one-byte fields after them, so a
// Uop is 40 bytes with no padding.
type Uop struct {
	Seq    uint64 // global program-order sequence number, starts at 1
	PC     uint64 // synthetic instruction address (for predictors)
	Addr   uint64 // memory effective address (loads/stores)
	MemSeq uint64 // true producing store sequence for loads; 0 if from memory
	Class  Class
	Src1   int8
	Src2   int8
	Dst    int8
	Size   uint8 // access size in bytes (loads/stores)
	Taken  bool  // branch outcome

	// Release-consistency annotations. Acq marks a load-acquire (younger
	// memory operations may not perform before it); Rel marks a
	// store-release (its memory update may not become visible before every
	// older operation has performed). Fence-class uops are full barriers
	// and carry neither flag.
	Acq bool
	Rel bool
}

// String renders a compact human-readable form for debugging.
func (u *Uop) String() string {
	switch u.Class {
	case Load:
		if u.Acq {
			return fmt.Sprintf("#%d load.acq r%d <- [%#x]", u.Seq, u.Dst, u.Addr)
		}
		return fmt.Sprintf("#%d %s r%d <- [%#x]", u.Seq, u.Class, u.Dst, u.Addr)
	case Store:
		if u.Rel {
			return fmt.Sprintf("#%d store.rel [%#x] <- r%d", u.Seq, u.Addr, u.Src2)
		}
		return fmt.Sprintf("#%d %s [%#x] <- r%d", u.Seq, u.Class, u.Addr, u.Src2)
	case Fence:
		return fmt.Sprintf("#%d fence", u.Seq)
	case Branch:
		return fmt.Sprintf("#%d %s pc=%#x taken=%v", u.Seq, u.Class, u.PC, u.Taken)
	default:
		return fmt.Sprintf("#%d %s r%d <- r%d, r%d", u.Seq, u.Class, u.Dst, u.Src1, u.Src2)
	}
}

// CacheLineSize is the L1/L2 line size from Table 1.
const CacheLineSize = 64

// LineAddr returns the cache-line-aligned address of a.
func LineAddr(a uint64) uint64 { return a &^ uint64(CacheLineSize-1) }
