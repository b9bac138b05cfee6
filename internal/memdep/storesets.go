// Package memdep implements the store-sets memory dependence predictor
// (Chrysos & Emer, ISCA 1998), the predictor Table 1 of the paper specifies.
//
// The predictor learns which static stores a static load has conflicted
// with. In this reproduction it is consulted when a load issues in the
// shadow of a miss while an older store with a poisoned or unknown address
// is in flight: if the predictor says "dependent", the load joins the slice
// (waits); if it says "independent", the load speculates, and a wrong answer
// is later caught by the (secondary) load buffer, forcing a checkpoint
// restart — exactly the flow in Section 4.2's cases (v) and (vi).
package memdep

// StoreSets is the SSIT/LFST predictor, reduced to its dependence-query
// essence: a table mapping PCs to store-set IDs. A load and store that
// violate are merged into the same set.
type StoreSets struct {
	ssit    []int32 // store-set ID table, indexed by hashed PC; -1 = invalid
	nextSet int32
	mask    uint64
}

// New creates a store-sets predictor with the given SSIT size (power of two).
func New(entries int) *StoreSets {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("memdep: entries must be a positive power of two")
	}
	s := &StoreSets{ssit: make([]int32, entries), mask: uint64(entries - 1)}
	for i := range s.ssit {
		s.ssit[i] = -1
	}
	return s
}

func (s *StoreSets) idx(pc uint64) uint64 { return (pc >> 2) & s.mask }

// Dependent reports whether the predictor believes the load at loadPC
// depends on the store at storePC (same store set).
func (s *StoreSets) Dependent(loadPC, storePC uint64) bool {
	ls := s.ssit[s.idx(loadPC)]
	ss := s.ssit[s.idx(storePC)]
	return ls >= 0 && ls == ss
}

// DependentOnAny reports whether the load at loadPC belongs to any store
// set at all (i.e. has a history of conflicting with some store). Used when
// the candidate store's identity is not cheaply known.
func (s *StoreSets) DependentOnAny(loadPC uint64) bool {
	return s.ssit[s.idx(loadPC)] >= 0
}

// RecordViolation merges the load and store into one store set, following
// the store-sets assignment rules (both invalid → new set; one valid → the
// other joins it; both valid → the lower-numbered set wins).
func (s *StoreSets) RecordViolation(loadPC, storePC uint64) {
	li, si := s.idx(loadPC), s.idx(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls < 0 && ss < 0:
		id := s.nextSet
		s.nextSet++
		s.ssit[li], s.ssit[si] = id, id
	case ls >= 0 && ss < 0:
		s.ssit[si] = ls
	case ls < 0 && ss >= 0:
		s.ssit[li] = ss
	default:
		if ls < ss {
			s.ssit[si] = ls
		} else {
			s.ssit[li] = ss
		}
	}
}
