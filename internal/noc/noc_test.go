package noc

import (
	"math/rand"
	"testing"

	"equinox/internal/geom"
)

// runUntilQuiescent steps the network until all traffic drains, failing the
// test on a stall (deadlock/livelock watchdog).
func runUntilQuiescent(t *testing.T, n *Network, maxCycles int64) {
	t.Helper()
	for !n.Quiescent() {
		// Endpoints consume delivered packets immediately in these tests.
		for node := 0; node < n.Cfg.Nodes(); node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		if n.StalledFor() > 2000 {
			t.Fatalf("network stalled for %d cycles at cycle %d", n.StalledFor(), n.Now())
		}
		if n.Now() > maxCycles {
			t.Fatalf("traffic did not drain within %d cycles", maxCycles)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.Width = 0
	if bad.Validate() == nil {
		t.Error("zero width accepted")
	}
	bad2 := cfg
	bad2.VCPolicy = VCByClass
	bad2.VCsPerPort = 1
	if bad2.Validate() == nil {
		t.Error("class policy with 1 VC accepted")
	}
	bad3 := cfg
	bad3.EIRGroups = map[geom.Point][]geom.Point{geom.Pt(9, 9): nil}
	if bad3.Validate() == nil {
		t.Error("EIR CB outside mesh accepted")
	}
	// Flit.Index is 16 bits: the longest packet, a line plus its header,
	// must fit.
	long := cfg
	long.FlitBytes, long.LineBytes = 1, maxPacketFlits-1
	if err := long.Validate(); err != nil {
		t.Errorf("%d-flit packets rejected: %v", maxPacketFlits, err)
	}
	long.LineBytes++
	if long.Validate() == nil {
		t.Errorf("%d-flit packets accepted", maxPacketFlits+1)
	}
}

func TestPacketSizes(t *testing.T) {
	if n := SizeInFlits(ReadRequest, 16, 128); n != 1 {
		t.Errorf("read request = %d flits, want 1", n)
	}
	if n := SizeInFlits(ReadReply, 16, 128); n != 9 {
		t.Errorf("read reply = %d flits, want 9", n)
	}
	if n := SizeInFlits(WriteRequest, 16, 128); n != 9 {
		t.Errorf("write request = %d flits, want 9", n)
	}
	if n := SizeInFlits(WriteReply, 16, 128); n != 1 {
		t.Errorf("write reply = %d flits, want 1", n)
	}
	if n := SizeInFlits(ReadReply, 32, 128); n != 5 {
		t.Errorf("wide-flit read reply = %d flits, want 5", n)
	}
	if n := SizeInFlits(ReadReply, 2, 128); n != 65 {
		t.Errorf("narrow-flit read reply = %d flits, want 65", n)
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(ReadRequest) != Request || ClassOf(WriteRequest) != Request {
		t.Error("request classes wrong")
	}
	if ClassOf(ReadReply) != Reply || ClassOf(WriteReply) != Reply {
		t.Error("reply classes wrong")
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{ID: 1, Type: ReadRequest, Src: 0, Dst: 15}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("injection refused on empty network")
	}
	var got *Packet
	for i := 0; i < 200 && got == nil; i++ {
		n.Step()
		got = n.PopDelivered(15)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.ID != 1 {
		t.Errorf("wrong packet delivered: %d", got.ID)
	}
	// 6 hops on a 4x4 from corner to corner; ~2 cycles per hop.
	if lat := got.TotalLatency(); lat < 6 || lat > 40 {
		t.Errorf("corner-to-corner latency %d outside plausible range", lat)
	}
	if got.QueueLatency() < 0 || got.NetworkLatency() <= 0 {
		t.Errorf("latency split broken: q=%d n=%d", got.QueueLatency(), got.NetworkLatency())
	}
}

func TestMultiFlitPacketArrivesIntact(t *testing.T) {
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{ID: 7, Type: ReadReply, Src: 5, Dst: 10}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("injection refused")
	}
	if p.Flits != 9 {
		t.Fatalf("reply should serialize to 9 flits, got %d", p.Flits)
	}
	runUntilQuiescent(t, n, 500)
	if n.Stats.Delivered[Reply] != 1 {
		t.Fatalf("delivered %d reply packets, want 1", n.Stats.Delivered[Reply])
	}
}

func TestSelfDeliveryNotSupported(t *testing.T) {
	// MC nodes never send to themselves (paper §4.4); the simulator treats
	// src==dst as immediate local ejection through the router.
	n, err := New(DefaultConfig("t", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{ID: 9, Type: ReadRequest, Src: 3, Dst: 3}
	if !n.TryInject(p, n.Now()) {
		t.Fatal("inject failed")
	}
	runUntilQuiescent(t, n, 200)
	if n.Stats.Delivered[Request] != 1 {
		t.Error("self packet not delivered")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.InjQueuePackets = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		p := &Packet{ID: int64(i), Type: ReadReply, Src: 0, Dst: 15}
		if n.TryInject(p, n.Now()) {
			ok++
		}
	}
	if ok >= 10 {
		t.Errorf("NI queue accepted all %d packets despite cap 2", ok)
	}
	if n.InjectSpace(0) != 0 {
		t.Errorf("expected zero space, got %d", n.InjectSpace(0))
	}
	runUntilQuiescent(t, n, 2000)
}

func TestUniformRandomTrafficDrains(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingXY, RoutingMinimalAdaptive} {
		cfg := DefaultConfig("t", 8, 8)
		cfg.Routing = mode
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		want := int64(0)
		for cycle := 0; cycle < 2000; cycle++ {
			if cycle < 1000 {
				for k := 0; k < 4; k++ {
					src := rng.Intn(64)
					dst := rng.Intn(64)
					typ := ReadRequest
					if rng.Intn(2) == 0 {
						typ = ReadReply
					}
					p := &Packet{ID: want, Type: typ, Src: src, Dst: dst}
					if n.TryInject(p, n.Now()) {
						want++
					}
				}
			}
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		runUntilQuiescent(t, n, 100000)
		if got := n.Stats.TotalDelivered(); got != want {
			t.Errorf("%v: delivered %d of %d injected", mode, got, want)
		}
	}
}

func TestSingleNetworkClassVCsDrain(t *testing.T) {
	// Mixed request+reply on one physical network with class-split VCs and
	// XY routing (the SingleBase configuration).
	for _, pol := range []VCPolicy{VCByClass, VCMonopolize} {
		cfg := DefaultConfig("t", 8, 8)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = pol
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		want := int64(0)
		for cycle := 0; cycle < 1500; cycle++ {
			if cycle < 800 {
				for k := 0; k < 3; k++ {
					p := &Packet{
						ID:  want,
						Src: rng.Intn(64), Dst: rng.Intn(64),
					}
					switch rng.Intn(4) {
					case 0:
						p.Type = ReadRequest
					case 1:
						p.Type = WriteRequest
					case 2:
						p.Type = ReadReply
					default:
						p.Type = WriteReply
					}
					if n.TryInject(p, n.Now()) {
						want++
					}
				}
			}
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		runUntilQuiescent(t, n, 100000)
		if got := n.Stats.TotalDelivered(); got != want {
			t.Errorf("%v: delivered %d of %d", pol, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		cfg := DefaultConfig("t", 8, 8)
		n, _ := New(cfg)
		rng := rand.New(rand.NewSource(3))
		for cycle := 0; cycle < 500; cycle++ {
			for k := 0; k < 3; k++ {
				p := &Packet{Type: ReadReply, Src: rng.Intn(64), Dst: rng.Intn(64)}
				n.TryInject(p, n.Now())
			}
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		return n.Stats.TotalDelivered(), n.Stats.AvgNetCycles(Reply)
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%f) vs (%d,%f)", d1, l1, d2, l2)
	}
}

func TestM2FewInjectionBottleneckVisible(t *testing.T) {
	// Few-to-many reply traffic from 4 CB nodes to everyone should create a
	// visible queuing bottleneck at the CBs compared to uniform traffic —
	// the paper's core premise (§2.2).
	cfg := DefaultConfig("t", 8, 8)
	n, _ := New(cfg)
	cbs := []int{9, 22, 41, 54}
	rng := rand.New(rand.NewSource(4))
	for cycle := 0; cycle < 3000; cycle++ {
		if cycle < 2000 {
			for _, cb := range cbs {
				p := &Packet{Type: ReadReply, Src: cb, Dst: rng.Intn(64)}
				n.TryInject(p, n.Now())
			}
		}
		for node := 0; node < n.Cfg.Nodes(); node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	runUntilQuiescent(t, n, 200000)
	// Queuing latency must dominate network latency under saturation.
	if q, nn := n.Stats.AvgQueueCycles(Reply), n.Stats.AvgNetCycles(Reply); q < nn {
		t.Errorf("expected injection queuing to dominate: queue=%f net=%f", q, nn)
	}
	// Heat: CB routers should be among the hottest.
	heat := n.HeatMap()
	cbHeat := 0.0
	for _, cb := range cbs {
		cbHeat += heat[cb]
	}
	cbHeat /= float64(len(cbs))
	avg := 0.0
	cnt := 0
	for _, h := range heat {
		if h > 0 {
			avg += h
			cnt++
		}
	}
	avg /= float64(cnt)
	if cbHeat < avg {
		t.Errorf("CB routers not hot: cb=%f avg=%f", cbHeat, avg)
	}
}

func TestEquiNoxNIDistributesInjection(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cb := geom.Pt(3, 3)
	eirs := []geom.Point{geom.Pt(5, 3), geom.Pt(1, 3), geom.Pt(3, 5), geom.Pt(3, 1)}
	cfg.CBs = []geom.Point{cb}
	cfg.EIRGroups = map[geom.Point][]geom.Point{cb: eirs}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// EIR routers must have gained an injection port.
	for _, e := range eirs {
		if got := len(n.RouterAt(e).in); got != int(geom.NumDirections)+1 {
			t.Errorf("EIR router %v has %d input ports, want %d", e, got, int(geom.NumDirections)+1)
		}
	}
	src := cb.ID(8)
	rng := rand.New(rand.NewSource(5))
	injected := int64(0)
	for cycle := 0; cycle < 3000; cycle++ {
		if cycle < 2000 {
			dst := rng.Intn(64)
			if dst != src {
				p := &Packet{Type: ReadReply, Src: src, Dst: dst}
				if n.TryInject(p, n.Now()) {
					injected++
				}
			}
		}
		for node := 0; node < n.Cfg.Nodes(); node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	runUntilQuiescent(t, n, 200000)
	if n.Stats.TotalDelivered() != injected {
		t.Fatalf("delivered %d of %d", n.Stats.TotalDelivered(), injected)
	}
	// The EIR routers should have carried a healthy share of the flits: with
	// 4 EIRs the local router must no longer dominate.
	local := n.RouterAt(cb).flitsThrough
	eirFlits := int64(0)
	for _, e := range eirs {
		eirFlits += n.RouterAt(e).flitsThrough
	}
	if eirFlits < local {
		t.Errorf("EIRs carried %d flits vs local %d; injection not distributed", eirFlits, local)
	}
}

func TestEquiNoxFasterThanBaselineUnderFewToMany(t *testing.T) {
	// The headline microbenchmark: few-to-many reply traffic drains faster
	// and with lower queuing latency with EIRs than without.
	mk := func(eir bool) *Network {
		cfg := DefaultConfig("t", 8, 8)
		cbs := []geom.Point{geom.Pt(2, 0), geom.Pt(5, 1), geom.Pt(1, 2), geom.Pt(4, 3),
			geom.Pt(7, 4), geom.Pt(0, 5), geom.Pt(6, 6), geom.Pt(3, 7)}
		cfg.CBs = cbs
		if eir {
			groups := map[geom.Point][]geom.Point{}
			for _, cb := range cbs {
				var g []geom.Point
				for _, d := range []geom.Direction{geom.East, geom.West, geom.South, geom.North} {
					e := cb.Add(geom.Pt(d.Delta().X*2, d.Delta().Y*2))
					if e.In(8, 8) {
						g = append(g, e)
					}
				}
				groups[cb] = g
			}
			cfg.EIRGroups = groups
		}
		n, _ := New(cfg)
		return n
	}
	run := func(n *Network) (drainCycle int64, queueLat float64) {
		rng := rand.New(rand.NewSource(6))
		cbs := n.Cfg.CBs
		for cycle := 0; cycle < 1500; cycle++ {
			for _, cb := range cbs {
				p := &Packet{Type: ReadReply, Src: cb.ID(8), Dst: rng.Intn(64)}
				n.TryInject(p, n.Now())
			}
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		for !n.Quiescent() {
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
			if n.Now() > 500000 {
				break
			}
		}
		return n.Now(), n.Stats.AvgQueueCycles(Reply)
	}
	base := mk(false)
	equi := mk(true)
	baseDrain, baseQ := run(base)
	equiDrain, equiQ := run(equi)
	if base.Stats.TotalDelivered() >= equi.Stats.TotalDelivered() &&
		equiDrain >= baseDrain && equiQ >= baseQ {
		t.Errorf("EquiNox NI shows no benefit: base(drain=%d q=%.1f n=%d) equi(drain=%d q=%.1f n=%d)",
			baseDrain, baseQ, base.Stats.TotalDelivered(), equiDrain, equiQ, equi.Stats.TotalDelivered())
	}
	if float64(equi.Stats.TotalDelivered()) < 1.1*float64(base.Stats.TotalDelivered()) {
		t.Errorf("EquiNox throughput %d not clearly above baseline %d",
			equi.Stats.TotalDelivered(), base.Stats.TotalDelivered())
	}
}

func TestMultiPortNIWidensInjection(t *testing.T) {
	mk := func(ports int) *Network {
		cfg := DefaultConfig("t", 8, 8)
		cfg.CBs = []geom.Point{geom.Pt(3, 3)}
		cfg.InjectPortsPerCB = ports
		n, _ := New(cfg)
		return n
	}
	run := func(n *Network) int64 {
		rng := rand.New(rand.NewSource(7))
		for cycle := 0; cycle < 1000; cycle++ {
			p := &Packet{Type: ReadReply, Src: geom.Pt(3, 3).ID(8), Dst: rng.Intn(64)}
			n.TryInject(p, n.Now())
			for node := 0; node < n.Cfg.Nodes(); node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		return n.Stats.TotalDelivered()
	}
	single := run(mk(1))
	multi := run(mk(4))
	if multi <= single {
		t.Errorf("MultiPort (%d) not above single port (%d)", multi, single)
	}
}

func TestHeatMapAndVariance(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	n, _ := New(cfg)
	p := &Packet{Type: ReadReply, Src: 0, Dst: 15}
	n.TryInject(p, n.Now())
	runUntilQuiescent(t, n, 1000)
	heat := n.HeatMap()
	if len(heat) != 16 {
		t.Fatalf("heat map has %d entries", len(heat))
	}
	any := false
	for _, h := range heat {
		if h > 0 {
			any = true
		}
		if h < 0 {
			t.Errorf("negative heat %f", h)
		}
	}
	if !any {
		t.Error("no router recorded traversal heat")
	}
}

func TestStatsReplyBitShare(t *testing.T) {
	var s Stats
	s.packetInjected(&Packet{Type: ReadRequest, Flits: 1}, 16)
	s.packetInjected(&Packet{Type: ReadReply, Flits: 9}, 16)
	share := s.ReplyBitShare()
	want := 9.0 / 10.0
	if share != want {
		t.Errorf("reply share = %f, want %f", share, want)
	}
}

func TestEjectionBackpressure(t *testing.T) {
	// If the endpoint never consumes, the ejection queue fills and the
	// network must stall without losing packets.
	cfg := DefaultConfig("t", 4, 4)
	n, _ := New(cfg)
	sent := int64(0)
	for cycle := 0; cycle < 400; cycle++ {
		p := &Packet{Type: ReadRequest, Src: 0, Dst: 15}
		if n.TryInject(p, n.Now()) {
			sent++
		}
		n.Step() // never pop node 15
	}
	if got := len(n.ejectQ[Request][15]); got > n.ejectCap {
		t.Errorf("ejection queue exceeded cap: %d", got)
	}
	// Now drain; everything must arrive.
	runUntilQuiescent(t, n, 100000)
	if n.Stats.TotalDelivered() != sent {
		t.Errorf("delivered %d of %d after backpressure", n.Stats.TotalDelivered(), sent)
	}
}

func TestSpokesPerNodeIndependentNIs(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	cfg.SpokesPerNode = 4
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every router gained 3 extra injection ports.
	for _, r := range n.Routers {
		if r.NumInPorts() != int(geom.NumDirections)+3 {
			t.Fatalf("router has %d input ports", r.NumInPorts())
		}
	}
	// Four packets injected on four spokes of one node all deliver.
	for sp := 0; sp < 4; sp++ {
		p := &Packet{ID: int64(sp), Type: ReadRequest, Src: 5, Dst: 10, Spoke: sp}
		if !n.TryInject(p, n.Now()) {
			t.Fatalf("spoke %d refused", sp)
		}
	}
	runUntilQuiescent(t, n, 2000)
	if n.Stats.Delivered[Request] != 4 {
		t.Errorf("delivered %d of 4", n.Stats.Delivered[Request])
	}
}

func TestSpokesWidenInjection(t *testing.T) {
	// Four spokes should accept roughly 4× the packets of one NI in the
	// same window when the node is the sole source.
	run := func(spokes int) int64 {
		cfg := DefaultConfig("t", 4, 4)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = VCByClass
		if spokes > 1 {
			cfg.SpokesPerNode = spokes
		}
		n, _ := New(cfg)
		rng := rand.New(rand.NewSource(31))
		for cyc := 0; cyc < 600; cyc++ {
			for sp := 0; sp < spokes; sp++ {
				dst := rng.Intn(16)
				p := &Packet{Type: ReadReply, Src: 5, Dst: dst, Spoke: sp}
				n.TryInject(p, n.Now())
			}
			for node := 0; node < 16; node++ {
				for n.PopDelivered(node) != nil {
				}
			}
			n.Step()
		}
		return n.Stats.Delivered[Reply]
	}
	one := run(1)
	four := run(4)
	if four < 2*one {
		t.Errorf("4 spokes delivered %d, not ≫ 1 spoke's %d", four, one)
	}
}

func TestSpokesRejectIncompatibleConfigs(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.SpokesPerNode = 4
	cfg.InjectPortsPerCB = 4
	cfg.CBs = []geom.Point{geom.Pt(1, 1)}
	if _, err := New(cfg); err == nil {
		t.Error("spokes + MultiPort accepted")
	}
	cfg2 := DefaultConfig("t", 4, 4)
	cfg2.SpokesPerNode = 4
	cfg2.CBs = []geom.Point{geom.Pt(1, 1)}
	cfg2.EIRGroups = map[geom.Point][]geom.Point{geom.Pt(1, 1): {geom.Pt(3, 1)}}
	if _, err := New(cfg2); err == nil {
		t.Error("spokes + EIR groups accepted")
	}
}

func TestOnDeliverCallback(t *testing.T) {
	n, _ := New(DefaultConfig("t", 4, 4))
	var got []*Packet
	n.OnDelivered(func(p *Packet) { got = append(got, p) })
	p := &Packet{ID: 77, Type: ReadReply, Src: 0, Dst: 15}
	n.TryInject(p, n.Now())
	runUntilQuiescent(t, n, 500)
	if len(got) != 1 || got[0].ID != 77 {
		t.Errorf("callback saw %d packets", len(got))
	}
	if got[0].DeliveredAt <= got[0].InjectedAt {
		t.Error("callback fired before delivery timestamps were set")
	}
}
