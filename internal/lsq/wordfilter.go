package lsq

import "math"

// wordFilter counts the resident entries of a queue per hashed 8-byte
// word. It is the simulator's own use of the LCF's idea (Section 4.3): a
// zero count proves that no resident entry touches the word, so a search
// for it can be skipped without changing its answer. Counts are exact —
// every add has its remove — so the filter never reports a false absence;
// a non-zero count only says "walk to find out". A count that reaches the
// counter's maximum sticks there, which keeps that promise for any queue
// size.
type wordFilter struct {
	counts []uint16
	shift  uint // 64 - log2(len(counts))
}

// newWordFilter sizes the filter for a queue of capacity entries: four
// buckets per entry, so that a full queue of distinct words leaves most
// buckets empty, rounded up to a power of two between 64 and 4096.
func newWordFilter(capacity int) wordFilter {
	bits := uint(6)
	for 1<<bits < 4*capacity && bits < 12 {
		bits++
	}
	return wordFilter{counts: make([]uint16, 1<<bits), shift: 64 - bits}
}

// bucket hashes addr's word by Fibonacci multiplication, so strided and
// region-aligned addresses spread over every bucket.
func (f *wordFilter) bucket(addr uint64) uint64 {
	return (wordAddr(addr) * 0x9E3779B97F4A7C15) >> f.shift
}

func (f *wordFilter) add(addr uint64) {
	if n := &f.counts[f.bucket(addr)]; *n != math.MaxUint16 {
		*n++
	}
}

func (f *wordFilter) remove(addr uint64) {
	if n := &f.counts[f.bucket(addr)]; *n != math.MaxUint16 {
		*n--
	}
}

// mayHold reports whether a resident entry might touch addr's word; false
// is a proof of absence.
func (f *wordFilter) mayHold(addr uint64) bool { return f.counts[f.bucket(addr)] != 0 }
