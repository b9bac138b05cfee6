package memdep

import "testing"

func TestInitiallyIndependent(t *testing.T) {
	s := New(1024)
	if s.Dependent(0x100, 0x200) {
		t.Fatal("untrained predictor claims dependence")
	}
	if s.DependentOnAny(0x100) {
		t.Fatal("untrained load in a store set")
	}
}

func TestViolationCreatesSet(t *testing.T) {
	s := New(1024)
	s.RecordViolation(0x100, 0x200)
	if !s.Dependent(0x100, 0x200) {
		t.Fatal("trained pair not dependent")
	}
	if !s.DependentOnAny(0x100) {
		t.Fatal("trained load not in any set")
	}
	if s.Dependent(0x100, 0x300) {
		t.Fatal("unrelated store matched")
	}
}

func TestSetMerging(t *testing.T) {
	s := New(1024)
	s.RecordViolation(0x100, 0x200) // set A: load100, store200
	s.RecordViolation(0x100, 0x300) // store300 joins load100's set
	if !s.Dependent(0x100, 0x300) {
		t.Fatal("store300 did not join")
	}
	// A second load violating with store200 joins the same set, making it
	// dependent on store300 as well (the store-sets transitivity).
	s.RecordViolation(0x400, 0x200)
	if !s.Dependent(0x400, 0x200) {
		t.Fatal("load400/store200 not dependent")
	}
}

func TestBothInDifferentSetsMergeToLower(t *testing.T) {
	s := New(1024)
	s.RecordViolation(0x100, 0x200) // set 0
	s.RecordViolation(0x300, 0x400) // set 1
	// Now load100 (set 0) violates with store400 (set 1).
	s.RecordViolation(0x100, 0x400)
	if !s.Dependent(0x100, 0x400) {
		t.Fatal("cross-set violation not dependent")
	}
}

func TestAliasingIsByHashedPC(t *testing.T) {
	s := New(64)
	// PCs that collide modulo the table size behave as the same entry —
	// document the aliasing rather than pretending it is absent.
	s.RecordViolation(0x100, 0x200)
	aliased := uint64(0x100 + 64*4)
	if !s.Dependent(aliased, 0x200) {
		t.Fatal("aliased PC should share the SSIT entry")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size did not panic")
		}
	}()
	New(100)
}
