package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{21, 50, 11},   // rank 11, 10 beyond
		{100, 90, 90},  // rank 90, 10 beyond
		{200, 90, 180}, // rank 180
		{120, 50, 60},
		{101, 50, 51}, // ceil(50.5) = 51
		{20, 50, 10},  // rank 10, exactly 10 beyond
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil {
			t.Errorf("p%v of %d: %v", tc.p, tc.n, err)
			continue
		}
		if got != tc.want {
			t.Errorf("p%v of %d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{21, 95}, // one sample beyond the 21-sample p95
		{99, 90}, // rank 90, 9 beyond
		{19, 50}, // rank 10, 9 beyond
		{0, 50},
		{500, 0},
		{500, 100},
	} {
		if v, err := percentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("p%v of %d = %v, want refusal", tc.p, tc.n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median empty = %v, want NaN", got)
	}
}
