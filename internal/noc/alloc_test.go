package noc

import (
	"testing"

	"equinox/internal/geom"
	"equinox/internal/telemetry"
)

// allocHarness keeps a warmed-up network saturated with recycled packets so
// the measured loop exercises injection, traversal, and ejection without any
// test-side allocation.
type allocHarness struct {
	n    *Network
	free []*Packet
}

// newAllocHarness pre-allocates packets for the given (src, dst) pairs.
// perPair controls offered load; packets are recycled on delivery.
func newAllocHarness(t *testing.T, n *Network, typ PacketType, pairs [][2]int, perPair int) *allocHarness {
	t.Helper()
	h := &allocHarness{n: n}
	id := int64(1)
	for _, pr := range pairs {
		for k := 0; k < perPair; k++ {
			h.free = append(h.free, &Packet{ID: id, Type: typ, Src: pr[0], Dst: pr[1]})
			id++
		}
	}
	// Reserve pop-side capacity so steady-state appends never grow the slice.
	h.free = append(make([]*Packet, 0, 2*len(h.free)), h.free...)
	return h
}

// tick is the measured unit: top up injection queues, advance one cycle,
// drain deliveries back onto the free list.
func (h *allocHarness) tick() {
	now := h.n.Now()
	for len(h.free) > 0 {
		p := h.free[len(h.free)-1]
		if !h.n.TryInject(p, now) {
			break
		}
		h.free = h.free[:len(h.free)-1]
	}
	h.n.Step()
	for node := 0; node < h.n.Cfg.Nodes(); node++ {
		for {
			p := h.n.PopDelivered(node)
			if p == nil {
				break
			}
			h.free = append(h.free, p)
		}
	}
}

// checkSteadyStateAllocs warms the network up (filling the flit pool, scratch
// buffers, and worklists), then asserts the hot loop runs allocation-free
// and the observer o saw it: samples taken and packets created and ejected.
func checkSteadyStateAllocs(t *testing.T, h *allocHarness, o *sampleObserver) {
	t.Helper()
	for i := 0; i < 3000; i++ {
		h.tick()
	}
	// One run of 256 cycles, not 256 runs of one: AllocsPerRun truncates
	// its per-run average, which would hide an allocation made only on
	// sampling cycles.
	const cycles = 256
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			h.tick()
		}
	}); n != 0 {
		t.Errorf("%d steady-state cycles allocate %.0f objects, want 0", cycles, n)
	}
	if o.samples == 0 || o.kinds[Created] == 0 || o.kinds[Ejected] == 0 {
		t.Errorf("observer saw %d samples and events %v", o.samples, o.kinds)
	}
}

// TestStepDoesNotAllocate locks in the zero-allocation hot loop: a warmed-up
// network must step, route, and deliver recycled packets without producing
// any garbage, for both a SingleBase-style shared network and an EquiNox
// network with EIR injection. Every network runs with a sampling observer
// attached that counts every event and reads Occupancy every 16 cycles,
// inside the measured window, pinning that the observation seam stays free
// in the steady state; two SingleBase runs add a telemetry series or a
// flight recorder behind it. sim's TestInstrumentsDoNotAllocate pins the
// instruments' sim adapters.
func TestStepDoesNotAllocate(t *testing.T) {
	t.Run("SingleBase", func(t *testing.T) {
		n := singleBaseAllocNet(t)
		o := newSampleObserver(n, 16)
		h := newAllocHarness(t, n, ReadRequest, singleBasePairs, 6)
		checkSteadyStateAllocs(t, h, o)
	})

	t.Run("EquiNox", func(t *testing.T) {
		cfg := DefaultConfig("equinox", 8, 8)
		cb1, cb2 := geom.Pt(3, 3), geom.Pt(4, 4)
		cfg.CBs = []geom.Point{cb1, cb2}
		cfg.EIRGroups = map[geom.Point][]geom.Point{
			cb1: {geom.Pt(1, 3), geom.Pt(5, 3), geom.Pt(3, 1), geom.Pt(3, 5)},
			cb2: {geom.Pt(2, 4), geom.Pt(6, 4), geom.Pt(4, 2), geom.Pt(4, 6)},
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := newSampleObserver(n, 16)
		// Reply traffic fanning out from the CBs through their EIRs, the
		// pattern the EquiNox NI exists for.
		w := cfg.Width
		pairs := [][2]int{
			{cb1.ID(w), 0}, {cb1.ID(w), 7}, {cb1.ID(w), 56}, {cb1.ID(w), 63},
			{cb2.ID(w), 0}, {cb2.ID(w), 7}, {cb2.ID(w), 56}, {cb2.ID(w), 63},
		}
		h := newAllocHarness(t, n, ReadReply, pairs, 4)
		checkSteadyStateAllocs(t, h, o)
	})

	// A telemetry series' ring, sketch and scratch are preallocated, so
	// windowed collection fed from the observation seam — occupancy every
	// 16 cycles and a window flush every 64, both inside the measured
	// window — must add zero steady-state allocations.
	t.Run("SingleBaseTelemetryAttached", func(t *testing.T) {
		n := singleBaseAllocNet(t)
		o := newSampleObserver(n, 16)
		tel := newTelemetryObserver(n, telemetry.Options{SampleEvery: 16, WindowCycles: 64, MaxWindows: 8})
		h := newAllocHarness(t, n, ReadRequest, singleBasePairs, 6)
		checkSteadyStateAllocs(t, h, o)
		if len(tel.series.Windows()) == 0 {
			t.Error("the telemetry series flushed no window")
		}
	})

	// A flight recorder's ring is preallocated, so recording every packet's
	// lifecycle events must not reintroduce steady-state garbage: events are
	// value copies into the ring and the watchdog's common path is two
	// compares. internal/flight imports noc, so the external tests supply
	// the recorder (AttachFlightRecorder).
	t.Run("SingleBaseFlightAttached", func(t *testing.T) {
		if AttachFlightRecorder == nil {
			t.Fatal("no flight recorder to attach")
		}
		n := singleBaseAllocNet(t)
		o := newSampleObserver(n, 16)
		recorded := AttachFlightRecorder(n)
		h := newAllocHarness(t, n, ReadRequest, singleBasePairs, 6)
		checkSteadyStateAllocs(t, h, o)
		if recorded() == 0 {
			t.Error("the flight recorder recorded no event")
		}
	})
}

// singleBasePairs is crossing request traffic between opposite corners of
// an 8x8 mesh plus a hotspot.
var singleBasePairs = [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}}

// singleBaseAllocNet builds the SingleBase-style 8x8 network of
// TestStepDoesNotAllocate.
func singleBaseAllocNet(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig("single", 8, 8)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// telemetryObserver feeds a telemetry series from a network the way
// internal/sim's sampler does: every delivery's latency, the routers'
// occupancy every SampleEvery cycles, and the window's flit counts at each
// flush.
type telemetryObserver struct {
	n                   *Network
	series              *telemetry.Series
	occ                 []int64
	lastInj, lastEjects int64
}

func newTelemetryObserver(n *Network, opts telemetry.Options) *telemetryObserver {
	o := &telemetryObserver{
		n:      n,
		series: telemetry.NewSeries(n.Cfg.Name, n.Cfg.Nodes(), n.Cfg.ClockGHz, opts),
		occ:    make([]int64, len(n.Routers)),
	}
	n.Observe(o)
	return o
}

func (o *telemetryObserver) Packet(_ int64, _ *Packet, k EventKind, _ int, a, _ int32) {
	if k == Ejected {
		o.series.ObserveLatency(int64(a))
	}
}

func (o *telemetryObserver) EndCycle(now int64) {
	if now%o.series.SampleEvery != 0 {
		return
	}
	o.n.Occupancy(o.occ, nil)
	var total, peak int64
	for _, f := range o.occ {
		total += f
		peak = max(peak, f)
	}
	o.series.Occupancy(total, peak)
	if now == 0 || now%o.series.WindowCycles != 0 {
		return
	}
	s := &o.n.Stats
	var inj int64
	for _, b := range s.Bits {
		inj += b
	}
	inj /= int64(8 * o.n.Cfg.FlitBytes)
	o.series.Flush(now, inj-o.lastInj, s.EjectFlits-o.lastEjects)
	o.lastInj, o.lastEjects = inj, s.EjectFlits
}

// TestQuiescentMatchesScan cross-checks the O(1) in-flight counter behind
// Quiescent against the full-network scan it replaced, at every cycle of a
// busy run including the drain to empty.
func TestQuiescentMatchesScan(t *testing.T) {
	n, err := New(DefaultConfig("t", 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 35}, {35, 0}, {5, 30}, {30, 5}, {14, 21}}
	h := newAllocHarness(t, n, ReadReply, pairs, 3)
	for i := 0; i < 400; i++ {
		h.tick()
		if got, want := n.Quiescent(), n.quiescentScan(); got != want {
			t.Fatalf("cycle %d: Quiescent()=%v but scan says %v", n.Now(), got, want)
		}
	}
	// Stop injecting and drain completely; the counter must reach zero
	// exactly when the scan does.
	for i := 0; i < 2000 && !n.Quiescent(); i++ {
		n.Step()
		for node := 0; node < n.Cfg.Nodes(); node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		if got, want := n.Quiescent(), n.quiescentScan(); got != want {
			t.Fatalf("drain cycle %d: Quiescent()=%v but scan says %v", n.Now(), got, want)
		}
	}
	if !n.Quiescent() {
		t.Fatal("network did not drain")
	}
}
