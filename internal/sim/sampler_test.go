package sim

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"equinox/internal/flight"
	"equinox/internal/noc"
	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

// probedSystem runs one small SingleBase hotspot system to completion with
// probes sampling every `every` cycles and returns it with its probes.
func probedSystem(t *testing.T, every int64) (*System, []*Probe) {
	t.Helper()
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(SingleBase, t)
	cfg.InstructionsPerPE = 40
	sys, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	probes := sys.AttachProbes(every)
	if _, err := sys.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	return sys, probes
}

// TestProbeSampling checks each probe's sample count — one per multiple of
// `every` among the cycles its network ran — and the shapes and sanity of
// what it accumulated.
func TestProbeSampling(t *testing.T) {
	sys, probes := probedSystem(t, 4)
	for i, n := range sys.Networks() {
		p := probes[i]
		if want := (n.Now()-1)/4 + 1; p.samples != want {
			t.Errorf("%s: Samples = %d, want %d (%d cycles / every 4)", n.Cfg.Name, p.samples, want, n.Now())
		}
		mean := p.MeanOccupancy()
		if len(mean) != len(n.Routers) {
			t.Fatalf("MeanOccupancy len = %d, want %d", len(mean), len(n.Routers))
		}
		var total float64
		for r, m := range mean {
			if m < 0 {
				t.Errorf("router %d mean occupancy negative: %v", r, m)
			}
			if float64(p.occMax[r]) < m {
				t.Errorf("router %d max %d below mean %v", r, p.occMax[r], m)
			}
			total += m
		}
		links := p.MeanLinkLoad()
		if len(links) != len(n.Routers)*meshLinks {
			t.Fatalf("MeanLinkLoad len = %d, want %d", len(links), len(n.Routers)*meshLinks)
		}
		var linkTotal float64
		for _, v := range links {
			linkTotal += v
		}
		if total == 0 || linkTotal == 0 {
			t.Errorf("%s: mean occupancy sums to %v and link load to %v under traffic", n.Cfg.Name, total, linkTotal)
		}
	}
}

func TestProbeCSV(t *testing.T) {
	sys, probes := probedSystem(t, 4)
	var buf bytes.Buffer
	if err := probes[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := len(sys.Networks()[0].Routers) + 1; len(lines) != want {
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

// deliveryCheck is a test observer counting deliveries; each must arrive
// with its delivery timestamp set and its latency as the event argument.
type deliveryCheck struct {
	t         *testing.T
	delivered int64
}

func (d *deliveryCheck) Packet(now int64, p *noc.Packet, k noc.EventKind, _ int, a, _ int32) {
	if k != noc.Ejected {
		return
	}
	d.delivered++
	if p.DeliveredAt != now || int64(a) != now-p.CreatedAt {
		d.t.Errorf("packet %d ejected at cycle %d with DeliveredAt %d and latency %d", p.ID, now, p.DeliveredAt, a)
	}
}

func (*deliveryCheck) EndCycle(int64) {}

// TestObserversIndependentOfAttachOrder runs one EquiNox 8×8 hotspot run for
// each attach order of the probes, telemetry and the flight recorder, through
// System's Attach methods, and requires byte-identical exports: no observer
// may see, or change, another's effect, and sharing one sampler between the
// probe and telemetry must not depend on which attached first. A test
// observer, attached to every network first or last, must see every delivery
// with its timestamp set.
func TestObserversIndependentOfAttachOrder(t *testing.T) {
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(EquiNox, t)
	cfg.InstructionsPerPE = 40
	var want []byte
	for i, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		sys, err := NewSystem(cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		check := &deliveryCheck{t: t}
		observe := func() {
			for _, n := range sys.Networks() {
				n.Observe(check)
			}
		}
		if i%2 == 0 {
			observe()
		}
		var probes []*Probe
		var tel *telemetry.Capture
		var fl *flight.Capture
		for _, o := range order {
			switch o {
			case 0:
				probes = sys.AttachProbes(8)
			case 1:
				tel = sys.AttachTelemetry(telemetry.Options{SampleEvery: 16, WindowCycles: 64, MaxWindows: 512})
			case 2:
				fl = sys.AttachFlight(flight.Options{BufferCap: 1 << 17})
			}
		}
		if i%2 == 1 {
			observe()
		}
		if _, err := sys.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		var delivered int64
		for _, n := range sys.Networks() {
			delivered += n.Stats.TotalDelivered()
		}
		if check.delivered != delivered || delivered == 0 {
			t.Errorf("order %v: the test observer saw %d of %d deliveries", order, check.delivered, delivered)
		}
		if fl.Overwritten() != 0 {
			t.Fatalf("flight ring overwrote %d events", fl.Overwritten())
		}
		var buf bytes.Buffer
		for _, p := range probes {
			if err := p.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := telemetry.WriteCSV(&buf, []telemetry.RunSummary{tel.Summary()}); err != nil {
			t.Fatal(err)
		}
		if err := fl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("attach order %v changed the exports", order)
		}
	}
}

// TestInstrumentsDoNotAllocate pins the instruments' steady state at zero
// allocations: for every scheme, a warmed System with probes, telemetry and
// the flight recorder attached — sampling every 16 cycles and flushing a
// telemetry window every 64, inside the measured cycles — makes exactly as
// many mallocs over the same cycles as the same System bare.
func TestInstrumentsDoNotAllocate(t *testing.T) {
	prof, err := workloads.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 1000, 256
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			cfg := smallConfig(s, t)
			cfg.InstructionsPerPE = 2000
			var mallocs [2]uint64
			for i := range mallocs {
				sys, err := NewSystem(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				var probes []*Probe
				var tel *telemetry.Capture
				var fl *flight.Capture
				if i == 1 {
					probes = sys.AttachProbes(16)
					tel = sys.AttachTelemetry(telemetry.Options{SampleEvery: 16, WindowCycles: 64, MaxWindows: 8})
					fl = sys.AttachFlight(flight.Options{BufferCap: 1 << 12})
				}
				for c := 0; c < warm; c++ {
					sys.Step()
				}
				var before, events, samples int64
				if i == 1 {
					before, samples = fl.TotalEvents(), probes[0].samples
				}
				mallocs[i] = stepMallocs(sys, measured)
				if sys.Finished() {
					t.Fatal("the run finished inside the measured cycles")
				}
				if i == 1 {
					events, samples = fl.TotalEvents()-before, probes[0].samples-samples
					if events == 0 || samples == 0 || len(tel.Summary().Networks[0].Windows) == 0 {
						t.Fatalf("instruments idle in the measured cycles: %d events, %d probe samples", events, samples)
					}
				}
			}
			if mallocs[1] != mallocs[0] {
				t.Errorf("%d cycles make %d mallocs with every instrument attached, %d bare", measured, mallocs[1], mallocs[0])
			}
		})
	}
}

// stepMallocs steps sys the given number of cycles on one P and returns the
// heap objects allocated meanwhile.
func stepMallocs(sys *System, cycles int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < cycles; c++ {
		sys.Step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
