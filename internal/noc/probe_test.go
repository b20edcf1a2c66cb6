package noc

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"equinox/internal/telemetry"
)

// runProbed drives a small network under sustained crossing traffic with a
// probe attached and returns the probe after the run.
func runProbed(t *testing.T, every int64, cycles int) (*Network, *Probe) {
	t.Helper()
	cfg := DefaultConfig("probed", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.AttachProbe(every)
	pairs := [][2]int{{0, 15}, {15, 0}, {3, 12}, {12, 3}}
	h := newAllocHarness(t, n, ReadRequest, pairs, 4)
	for i := 0; i < cycles; i++ {
		h.tick()
	}
	return n, p
}

func TestProbeSampling(t *testing.T) {
	n, p := runProbed(t, 4, 400)

	if want := int64(100); p.Samples() != want {
		t.Errorf("Samples = %d, want %d (400 cycles / every 4)", p.Samples(), want)
	}

	mean := p.MeanOccupancy()
	if len(mean) != len(n.Routers) {
		t.Fatalf("MeanOccupancy len = %d, want %d", len(mean), len(n.Routers))
	}
	var total float64
	for i, m := range mean {
		if m < 0 {
			t.Errorf("router %d mean occupancy negative: %v", i, m)
		}
		if float64(p.MaxOccupancy()[i]) < m {
			t.Errorf("router %d max %d below mean %v", i, p.MaxOccupancy()[i], m)
		}
		total += m
	}
	if total == 0 {
		t.Error("no occupancy recorded under sustained traffic")
	}

	links := p.MeanLinkLoad()
	if len(links) != len(n.Routers)*meshLinks {
		t.Fatalf("MeanLinkLoad len = %d, want %d", len(links), len(n.Routers)*meshLinks)
	}
	var linkTotal float64
	for _, v := range links {
		linkTotal += v
	}
	if linkTotal == 0 {
		t.Error("no link load recorded under sustained traffic")
	}
}

// TestDeliveryHooksIndependentOfAttachOrder attaches a telemetry series and
// a plain delivery hook to one network in both orders: each must see every
// delivery either way (a later hook must never replace an earlier one).
func TestDeliveryHooksIndependentOfAttachOrder(t *testing.T) {
	const pkts, window = 60, 64
	for _, hookLast := range []bool{true, false} {
		n, err := New(DefaultConfig("t", 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		var hooked int
		hook := func(*Packet) { hooked++ }
		var series *telemetry.Series
		topts := telemetry.Options{SampleEvery: 16, WindowCycles: window}
		if hookLast {
			series = n.AttachTelemetry(topts)
			n.OnDelivered(hook)
		} else {
			n.OnDelivered(hook)
			series = n.AttachTelemetry(topts)
		}
		rng := rand.New(rand.NewSource(1))
		sent := 0
		// Run to quiescence, then on to the next window flush so the
		// series' last deliveries are counted.
		for cyc := 0; sent < pkts || !n.Quiescent() || n.Now()%window != 1; cyc++ {
			if cyc > 5000 {
				t.Fatal("network did not drain")
			}
			if sent < pkts {
				p := &Packet{ID: int64(sent), Type: ReadReply, Src: rng.Intn(16), Dst: rng.Intn(16)}
				if n.TryInject(p, n.Now()) {
					sent++
				}
			}
			for node := 0; node < 16; node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		var windowed int64
		for _, w := range series.Windows() {
			windowed += w.LatCount
		}
		if hooked != pkts || windowed != pkts {
			t.Errorf("hook attached last=%v: hook saw %d, telemetry %d of %d deliveries",
				hookLast, hooked, windowed, pkts)
		}
	}
}

func TestProbeCSV(t *testing.T) {
	n, p := runProbed(t, 4, 400)
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := len(n.Routers) + 1; len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d (header + one per router)", len(lines), want)
	}
	if lines[0] != "router,x,y,mean_occ,max_occ,link_e,link_w,link_s,link_n" {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 8 {
			t.Errorf("CSV row %q has %d commas, want 8", line, got)
		}
	}
}

func TestCombineMeanOccupancyAndRatio(t *testing.T) {
	p1 := &Probe{samples: 2, occSum: []int64{4, 0, 2}}
	p2 := &Probe{samples: 2, occSum: []int64{0, 4, 2}}
	got := CombineMeanOccupancy([]*Probe{p1, p2})
	want := []float64{1, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("combined occupancy = %v, want %v", got, want)
		}
	}

	if r := MaxMeanRatio([]float64{1, 1, 1, 1}); r != 1 {
		t.Errorf("uniform MaxMeanRatio = %v, want 1", r)
	}
	if r := MaxMeanRatio([]float64{4, 0, 0, 0}); r != 4 {
		t.Errorf("hotspot MaxMeanRatio = %v, want 4", r)
	}
	if r := MaxMeanRatio(nil); r != 0 {
		t.Errorf("empty MaxMeanRatio = %v, want 0", r)
	}
	if r := MaxMeanRatio([]float64{0, 0}); r != 0 {
		t.Errorf("flat-zero MaxMeanRatio = %v, want 0", r)
	}
}
