package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile. A
// percentile with fewer samples past it is set by a handful of outliers and
// jumps from run to run, so percentile refuses to report one.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest sample with at least p% of the samples at or below it. It
// returns an error unless at least minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			p, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count). It is for per-unit figures such as pass wall times, of
// which a run holds only a few.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
