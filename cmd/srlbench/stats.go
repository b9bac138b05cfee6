package main

import (
	"math"
	"slices"
)

// quantile returns the p-quantile of sorted data by the method of Python's
// statistics.quantiles (method="exclusive"): position p*(n+1), linear
// interpolation, clamped to the inner pair of ranks as Python does. The
// quartiles it gives are exactly the ones the benchmark's spread rule uses.
// It returns 0 for no data.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	j = min(max(j, 1), n-1)
	delta := pos - float64(j)
	return sorted[j-1] + (sorted[j]-sorted[j-1])*delta
}

// beyond counts the samples ranked above the p-quantile's position.
func beyond(n int, p float64) int {
	return max(0, n-int(math.Floor(p*float64(n+1))))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
