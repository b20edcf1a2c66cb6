package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.SampleEvery != 64 || o.WindowCycles != 1024 || o.MaxWindows != 256 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.WindowCycles%o.SampleEvery != 0 {
		t.Fatal("window not a multiple of stride")
	}
	// A window narrower than the stride rounds up to one stride.
	o = Options{SampleEvery: 100, WindowCycles: 30}.WithDefaults()
	if o.WindowCycles != 100 {
		t.Fatalf("window %d, want 100", o.WindowCycles)
	}
}

// TestSketchQuantileErrorBound feeds known values and checks the estimate
// stays within the documented geometric-bucket error bound: one bucket
// ratio, before the linear interpolation inside the bucket.
func TestSketchQuantileErrorBound(t *testing.T) {
	bound := math.Pow(2, 1.0/sketchLogRatio) - 1
	if bound <= 0 || bound > 0.2 {
		t.Fatalf("unexpected error bound %f", bound)
	}
	for _, exact := range []int64{1, 3, 10, 42, 100, 1000, 4096, 100000} {
		var s sketch
		for i := 0; i < 1000; i++ {
			s.observe(exact)
		}
		got := s.quantile(0.50)
		if rel := math.Abs(got-float64(exact)) / float64(exact); rel > bound+1e-9 {
			t.Errorf("p50 of constant %d = %f (relative error %f > %f)", exact, got, rel, bound)
		}
	}
}

func TestSketchQuantileOrdering(t *testing.T) {
	var s sketch
	for v := int64(1); v <= 1000; v++ {
		s.observe(v)
	}
	p50, p95, p99 := s.quantile(0.50), s.quantile(0.95), s.quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles out of order: p50=%f p95=%f p99=%f", p50, p95, p99)
	}
	if p50 < 400 || p50 > 700 {
		t.Errorf("p50 of uniform 1..1000 = %f, want ≈500", p50)
	}
	if p99 < 800 {
		t.Errorf("p99 of uniform 1..1000 = %f, want ≈990", p99)
	}
}

func TestSeriesRingBounds(t *testing.T) {
	s := NewSeries("net", 4, 1.0, Options{WindowCycles: 10, SampleEvery: 10, MaxWindows: 4})
	for i := int64(1); i <= 10; i++ {
		s.Flush(i*10, 100, 100)
	}
	wins := s.Windows()
	if len(wins) != 4 {
		t.Fatalf("%d windows retained, want 4", len(wins))
	}
	if s.Dropped() != 6 {
		t.Fatalf("%d dropped, want 6", s.Dropped())
	}
	// Oldest-first ordering with the oldest six rolled off.
	if wins[0].Start != 60 || wins[3].End != 100 {
		t.Fatalf("ring order wrong: first %+v last %+v", wins[0], wins[3])
	}
}

// TestDetectorSteady drives a classic warmup ramp into a plateau and checks
// the steady-state detector fires once and dates the warmup correctly.
func TestDetectorSteady(t *testing.T) {
	s := NewSeries("net", 8, 1.0, Options{WindowCycles: 100, SampleEvery: 100, MaxWindows: 64})
	// Ramp: accepted rate grows 25% per window, then flattens.
	rates := []int64{100, 125, 160, 200, 400, 405, 400, 402, 401, 400}
	for i, r := range rates {
		s.ObserveLatency(20)
		s.Flush(int64(i+1)*100, r, r)
	}
	steady, warmup := s.Steady()
	if !steady {
		t.Fatal("plateau not detected as steady")
	}
	// Stability needs 3 consecutive within-5% windows after the jump to 400
	// at window 5 (1-based): windows 6,7,8 → steady at window 8's end.
	if warmup != 800 {
		t.Fatalf("warmupCycles = %d, want 800", warmup)
	}
	if sat, _ := s.Saturated(); sat {
		t.Fatal("flat-latency plateau flagged saturated")
	}
}

// TestDetectorSaturationKnee drives a run whose latency knees upward while
// ejection stops tracking injection, and checks the saturation detector
// latches (and dates the latch).
func TestDetectorSaturationKnee(t *testing.T) {
	s := NewSeries("net", 8, 1.0, Options{WindowCycles: 100, SampleEvery: 100, MaxWindows: 64})
	flush := func(i int, lat int64, inj, ej int64) {
		for k := 0; k < 50; k++ {
			s.ObserveLatency(lat)
		}
		s.Flush(int64(i)*100, inj, ej)
	}
	// Light, fast windows establish the zero-load baseline …
	for i := 1; i <= 3; i++ {
		flush(i, 20, 200, 200)
	}
	// … then congestion: latency blows past 3× baseline and ejection lags.
	for i := 4; i <= 8; i++ {
		flush(i, 400, 300, 200)
	}
	sat, at := s.Saturated()
	if !sat {
		t.Fatal("knee not detected")
	}
	if at != 500 {
		t.Fatalf("saturatedAtCycle = %d, want 500 (second saturating window)", at)
	}
}

// TestDetectorIgnoresIdleWindows checks near-idle drain windows neither
// latch saturation nor fake stability.
func TestDetectorIgnoresIdleWindows(t *testing.T) {
	s := NewSeries("net", 8, 1.0, Options{WindowCycles: 100, SampleEvery: 100, MaxWindows: 64})
	for i := 1; i <= 10; i++ {
		// 10 flits per window is under the 64-flit floor; the 1-vs-10
		// inject/eject imbalance would otherwise trip the tracking signal.
		s.Flush(int64(i)*100, 10, 1)
	}
	if sat, _ := s.Saturated(); sat {
		t.Fatal("idle windows latched saturation")
	}
	if steady, _ := s.Steady(); steady {
		t.Fatal("idle windows declared steady")
	}
}

func TestCaptureSummaryAndCSV(t *testing.T) {
	a := NewSeries("request", 4, 1.0, Options{WindowCycles: 100, SampleEvery: 100, MaxWindows: 8})
	b := NewSeries("reply", 4, 1.0, Options{WindowCycles: 100, SampleEvery: 100, MaxWindows: 8})
	for i := int64(1); i <= 4; i++ {
		a.ObserveLatency(16)
		a.Occupancy(40, 20)
		a.Flush(i*100, 400, 400)
		b.ObserveLatency(32)
		b.Flush(i*100, 400, 360)
	}
	c := &Capture{Scheme: "EquiNox", Benchmark: "kmeans", Series: []*Series{a, b}}
	sum := c.Summary()
	if sum.Scheme != "EquiNox" || sum.Benchmark != "kmeans" || len(sum.Networks) != 2 {
		t.Fatalf("bad summary shape: %+v", sum)
	}
	if sum.Networks[0].Name != "request" || len(sum.Networks[0].Windows) != 4 {
		t.Fatalf("bad network series: %+v", sum.Networks[0])
	}
	if got := sum.Networks[0].Windows[0].OccMean; got != 10 {
		t.Errorf("OccMean = %f, want 10 (40 flits / 4 nodes)", got)
	}
	if got := sum.Networks[0].Windows[0].Accepted; got != 1.0 {
		t.Errorf("Accepted = %f, want 1.0 (400 flits / 4 nodes / 100 cycles)", got)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, []RunSummary{sum}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("%d CSV lines, want header + 8 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "scheme,benchmark,network,window,start,end,") {
		t.Fatalf("bad CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "EquiNox,kmeans,request,0,0,100,400,400,") {
		t.Fatalf("bad first row: %s", lines[1])
	}
}
