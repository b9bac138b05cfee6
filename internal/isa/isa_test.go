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
