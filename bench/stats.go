package main

import "sort"

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for no samples.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), so that the
// spreads -compare prints are the spreads the acceptance rule is stated in.
// It needs at least two samples.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		r := i*m - j*4
		return (s[j-1]*float64(4-r) + s[j]*float64(r)) / 4
	}
	return at(1), at(3)
}

// tailPercentile applies the reporting rule for tail latencies: the highest
// of p99.9, p99, p95, p90, p75 that still has at least ten samples beyond it.
// It returns the percentile chosen and its value; p is 0 when even p75 has
// fewer than ten samples above it (fewer than 40 samples in all).
func tailPercentile(vals []float64) (p, v float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, c := range []struct {
		p      float64
		beyond int // of every 1000 samples
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}} {
		if beyond := len(s) * c.beyond / 1000; beyond >= 10 {
			return c.p, s[len(s)-1-beyond]
		}
	}
	return 0, 0
}
