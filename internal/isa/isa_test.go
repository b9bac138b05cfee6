package isa

import (
	"strings"
	"testing"
)

func TestClassProperties(t *testing.T) {
	cases := []struct {
		c     Class
		isFP  bool
		isMem bool
	}{
		{IntALU, false, false},
		{IntMul, false, false},
		{FPAdd, true, false},
		{FPMul, true, false},
		{FPDiv, true, false},
		{Load, false, true},
		{Store, false, true},
		{Branch, false, false},
	}
	for _, tc := range cases {
		if tc.c.IsFP() != tc.isFP {
			t.Errorf("%v IsFP = %v", tc.c, tc.c.IsFP())
		}
		if tc.c.IsMem() != tc.isMem {
			t.Errorf("%v IsMem = %v", tc.c, tc.c.IsMem())
		}
	}
}

func TestLatenciesOrdered(t *testing.T) {
	if IntALU.Latency() != 1 || Branch.Latency() != 1 {
		t.Fatal("single-cycle classes wrong")
	}
	if !(FPDiv.Latency() > FPMul.Latency() && FPMul.Latency() > FPAdd.Latency()) {
		t.Fatal("FP latency ordering broken")
	}
}

func TestClassString(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if strings.HasPrefix(c.String(), "class(") {
			t.Errorf("class %d has no mnemonic", c)
		}
	}
	if !strings.HasPrefix(Class(200).String(), "class(") {
		t.Error("unknown class should render numerically")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 {
		t.Fatal("LineAddr(0)")
	}
	if LineAddr(63) != 0 {
		t.Fatal("LineAddr(63)")
	}
	if LineAddr(64) != 64 {
		t.Fatal("LineAddr(64)")
	}
	if LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr(0x12345) = %#x", LineAddr(0x12345))
	}
}

func TestUopString(t *testing.T) {
	u := Uop{Seq: 7, Class: Load, Dst: 3, Addr: 0x1000}
	if !strings.Contains(u.String(), "load") || !strings.Contains(u.String(), "0x1000") {
		t.Fatalf("load string: %s", u.String())
	}
	u = Uop{Seq: 8, Class: Store, Src2: 5, Addr: 0x2000}
	if !strings.Contains(u.String(), "store") {
		t.Fatalf("store string: %s", u.String())
	}
}

// TestClassTable compares every class's row of the class table with the
// switches it replaced, kept here as the reference: the latency switch,
// and the scheduler window and register file the IsMem and IsFP tests
// chose.
func TestClassTable(t *testing.T) {
	latency := func(c Class) uint64 {
		switch c {
		case IntALU, Branch, Fence:
			return 1
		case IntMul:
			return 3
		case FPAdd:
			return 4
		case FPMul:
			return 6
		case FPDiv:
			return 20
		case Load:
			return 0
		case Store:
			return 1
		default:
			return 1
		}
	}
	sched := func(c Class) Pool {
		switch {
		case c.IsMem():
			return PoolMem
		case c.IsFP():
			return PoolFP
		default:
			return PoolInt
		}
	}
	regs := func(c Class) Pool {
		if c.IsFP() {
			return PoolFP
		}
		return PoolInt
	}
	for c := Class(0); c < NumClasses; c++ {
		want := ClassInfo{Latency: latency(c), Sched: sched(c), Regs: regs(c)}
		if got := c.Info(); got != want {
			t.Errorf("%v: table row %+v, switches give %+v", c, got, want)
		}
		if c.Latency() != want.Latency {
			t.Errorf("%v: Latency() = %d, want %d", c, c.Latency(), want.Latency)
		}
		if r := c.Info().Regs; r != PoolInt && r != PoolFP {
			t.Errorf("%v: register file %d has no registers", c, r)
		}
	}
}
