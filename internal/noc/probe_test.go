package noc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"equinox/internal/flight"
	"equinox/internal/telemetry"
)

// runProbed drives a small network under sustained crossing reply traffic —
// the last VC of every input port it crosses — with a probe and a flit
// ledger sampling alike attached, and returns both after the run.
func runProbed(t *testing.T, every int64, cycles int) (*Network, *Probe, *flitLedger) {
	t.Helper()
	cfg := DefaultConfig("probed", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.AttachProbe(every)
	l := &flitLedger{n: n, every: every}
	n.Observe(l)
	pairs := [][2]int{{0, 15}, {15, 0}, {3, 12}, {12, 3}}
	h := newAllocHarness(t, n, ReadReply, pairs, 4)
	for i := 0; i < cycles; i++ {
		h.tick()
	}
	return n, p, l
}

// flitLedger is a test observer that sums, over the probe's sampling
// cycles, the flits injected and not yet ejected: by flit conservation, what
// the NIs, the input VCs and the links hold.
type flitLedger struct {
	n          *Network
	every, sum int64
}

func (*flitLedger) Packet(int64, *Packet, flight.Kind, int, int32, int32) {}

func (l *flitLedger) EndCycle(now int64) {
	if now%l.every == 0 {
		s := &l.n.Stats
		l.sum += (s.Bits[Request]+s.Bits[Reply])/int64(8*l.n.Cfg.FlitBytes) - s.EjectFlits
	}
}

// TestProbeSampling checks the probe's sample count and shapes, and that its
// occupancy adds up: summed over routers and samples, it equals the flits
// the ledger says were in the network less those the probe saw on links.
func TestProbeSampling(t *testing.T) {
	n, p, l := runProbed(t, 4, 400)

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
	var occ, onLinks int64
	for i := range p.occSum {
		occ += p.occSum[i]
	}
	for _, s := range p.linkSum {
		onLinks += s
	}
	if occ != l.sum-onLinks {
		t.Errorf("occupancy sums to %d flit-samples; %d were injected and not ejected, %d of them on links", occ, l.sum, onLinks)
	}
}

// deliveryCheck is a test observer counting deliveries; each must arrive
// with its delivery timestamp set and its latency as the event argument.
type deliveryCheck struct {
	t         *testing.T
	delivered int64
}

func (d *deliveryCheck) Packet(now int64, p *Packet, k flight.Kind, _ int, a, _ int32) {
	if k != flight.Ejected {
		return
	}
	d.delivered++
	if p.DeliveredAt != now || int64(a) != now-p.CreatedAt {
		d.t.Errorf("packet %d ejected at cycle %d with DeliveredAt %d and latency %d", p.ID, now, p.DeliveredAt, a)
	}
}

func (*deliveryCheck) EndCycle(int64) {}

// TestObserversIndependentOfAttachOrder runs one EquiNox 8×8 hotspot run for
// each attach order of the probe, the telemetry sampler and the flight
// recorder, and requires byte-identical exports: no observer may see, or
// change, another's effect. A test observer, attached first or last, must see
// every delivery with its timestamp set.
func TestObserversIndependentOfAttachOrder(t *testing.T) {
	var nc schemeNet
	for _, c := range schemeNetConfigs(t, 8) {
		if c.cfg.Name == "EquiNox/reply" {
			nc = c
		}
	}
	var want []byte
	for i, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		n, err := New(nc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := &deliveryCheck{t: t}
		if i%2 == 0 {
			n.Observe(check)
		}
		var probe *Probe
		var series *telemetry.Series
		var rec *flight.Recorder
		for _, o := range order {
			switch o {
			case 0:
				probe = n.AttachProbe(8)
			case 1:
				series = n.AttachTelemetry(telemetry.Options{SampleEvery: 16, WindowCycles: 64, MaxWindows: 512})
			case 2:
				rec = n.AttachFlight(flight.Options{BufferCap: 1 << 17})
			}
		}
		if i%2 == 1 {
			n.Observe(check)
		}
		driveTraffic(t, n, nc, "hotspot", 1, 5000, func(int, int64) { n.Step() })
		if check.delivered != n.Stats.TotalDelivered() {
			t.Errorf("order %v: the test observer saw %d of %d deliveries", order, check.delivered, n.Stats.TotalDelivered())
		}
		if rec.Overwritten() != 0 {
			t.Fatalf("flight ring overwrote %d events", rec.Overwritten())
		}
		var buf bytes.Buffer
		if err := probe.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		tel := &telemetry.Capture{Series: []*telemetry.Series{series}}
		if err := telemetry.WriteCSV(&buf, []telemetry.RunSummary{tel.Summary()}); err != nil {
			t.Fatal(err)
		}
		if err := (&flight.Capture{Recorders: []*flight.Recorder{rec}}).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("attach order %v changed the exports", order)
		}
	}
}

func TestProbeCSV(t *testing.T) {
	n, p, _ := runProbed(t, 4, 400)
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
