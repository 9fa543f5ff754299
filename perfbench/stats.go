package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary statistics over a sample, benchstat-style and stdlib-only.
// Quantiles use the "exclusive" definition (Hyndman & Fan type 6), the
// default of Python's statistics.quantiles, so the spreads this program
// reports match the ones an outside check computes from its numbers.

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: fewer and the value is one or two outliers, not
// a tail.
const minBeyond = 10

// quantile returns the type-6 quantile p (0 < p < 1) of sorted. Like
// Python's implementation it clamps the rank to the inner samples and
// extrapolates linearly past them, which only shows on tiny samples.
// sorted must be non-empty and ascending.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n+1) // 1-based rank
	j := int(math.Floor(h))
	j = max(1, min(j, n-1))
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// sortedCopy returns the values in ascending order without touching the
// caller's slice.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the sample median (0 for an empty sample).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles (type 6).
func quartiles(values []float64) (q1, q3 float64) {
	if len(values) == 0 {
		return 0, 0
	}
	s := sortedCopy(values)
	return quantile(s, 0.25), quantile(s, 0.75)
}

// percentile is one tail reading with the evidence behind it.
type percentile struct {
	P      float64 // e.g. 0.9
	Value  float64
	N      int // sample count
	Beyond int // samples strictly greater than Value
}

// tailPercentile returns percentile p of values, refusing it when fewer
// than minBeyond samples lie beyond it.
func tailPercentile(values []float64, p float64) (percentile, error) {
	if len(values) == 0 {
		return percentile{P: p}, fmt.Errorf("p%g of an empty sample", p*100)
	}
	s := sortedCopy(values)
	v := quantile(s, p)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	pc := percentile{P: p, Value: v, N: len(s), Beyond: beyond}
	if beyond < minBeyond {
		return pc, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p*100, len(s), beyond, minBeyond)
	}
	return pc, nil
}

// minSamplesFor is the smallest sample count whose percentile p can have
// minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	// The epsilon absorbs 1-0.9 not being exactly 0.1 in binary.
	return int(math.Ceil(minBeyond/(1-p) - 1e-9))
}
