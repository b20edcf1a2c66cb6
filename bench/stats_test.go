package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the acceptance spread is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1.5, 2.5, 2.75, 9}, 1.75, 7.4375},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestTailPercentileRule: the reported tail is the highest percentile that
// still has at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{39, 0, 0},           // p75 would leave 9 beyond
		{40, 75, 30},         // exactly 10 beyond p75
		{100, 90, 90},        // 10 beyond p90, 5 beyond p95
		{217, 95, 207},       // 10 beyond p95
		{1000, 99, 990},      // 10 beyond p99, 1 beyond p99.9
		{12000, 99.9, 11988}, // 12 beyond p99.9
	} {
		p, v := tailPercentile(series(c.n))
		if p != c.p || v != c.v {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, p, v, c.p, c.v)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, false, 0.1, "unchanged"},
		{"slower beyond the bound", []float64{120, 121, 119, 122, 120}, false, 0.1, "regressed"},
		{"every run faster", []float64{80, 81, 79, 80, 82}, false, 0.1, "improved"},
		{"higher is better, every run higher", []float64{120, 121, 119, 122, 120}, true, 0.1, "improved"},
		{"higher is better, lower beyond the bound", []float64{80, 81, 79, 80, 82}, true, 0.1, "regressed"},
		{"spread wider than the bound", []float64{70, 130, 101, 90, 120}, false, 0.1, "unresolved"},
	} {
		if got, _, _ := verdict(a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
