package noc

import (
	"slices"
	"strings"
	"testing"

	"equinox/internal/geom"
)

func TestStringers(t *testing.T) {
	if ReadRequest.String() != "ReadRequest" || WriteReply.String() != "WriteReply" {
		t.Error("packet type names")
	}
	if PacketType(99).String() != "PacketType(99)" {
		t.Error("out-of-range packet type")
	}
	if Request.String() != "Request" || Reply.String() != "Reply" {
		t.Error("class names")
	}
	if RoutingXY.String() != "XY" || RoutingMinimalAdaptive.String() != "MinimalAdaptive" {
		t.Error("routing names")
	}
	if VCPrivate.String() != "Private" || VCByClass.String() != "ByClass" || VCMonopolize.String() != "Monopolize" {
		t.Error("policy names")
	}
	n, _ := New(DefaultConfig("demo", 4, 4))
	if !strings.Contains(n.String(), "demo(4x4") {
		t.Errorf("network string: %s", n.String())
	}
}

func TestRouterPosAndRouterAt(t *testing.T) {
	n, _ := New(DefaultConfig("t", 4, 4))
	r := n.RouterAt(geom.Pt(2, 3))
	if r == nil || r.pos != geom.Pt(2, 3) {
		t.Error("RouterAt/Pos wrong")
	}
	if n.RouterAt(geom.Pt(9, 9)) != nil {
		t.Error("out-of-mesh router returned")
	}
}

func TestStatsCycles(t *testing.T) {
	n, _ := New(DefaultConfig("t", 4, 4))
	for i := 0; i < 7; i++ {
		n.Step()
	}
	if n.Stats.Cycles() != 7 {
		t.Errorf("cycles = %d", n.Stats.Cycles())
	}
}

func TestPeekDeliveredClass(t *testing.T) {
	n, _ := New(DefaultConfig("t", 4, 4))
	p := &Packet{ID: 3, Type: ReadReply, Src: 0, Dst: 5}
	n.TryInject(p, n.Now())
	for i := 0; i < 300 && n.PeekDeliveredClass(5, Reply) == nil; i++ {
		n.Step()
	}
	q := n.PeekDeliveredClass(5, Reply)
	if q == nil || q.ID != 3 {
		t.Fatal("peek failed")
	}
	if n.PeekDeliveredClass(5, Request) != nil {
		t.Error("request queue should be empty")
	}
	if got := n.PopDeliveredClass(5, Reply); got != q {
		t.Error("pop returned a different packet")
	}
}

// TestRefusedInjectChangesNothing holds TryInject's refusal to be free of
// side effects on every NI kind and both classes: once a class FIFO is full,
// one more TryInject returns false and leaves the statistics, the in-flight
// count, the set of NIs with work and the packet itself as they were.
func TestRefusedInjectChangesNothing(t *testing.T) {
	cb := geom.Pt(1, 1)
	kinds := []struct {
		name  string
		spoke int
		cfg   func(*Config)
	}{
		{"baseline", 0, func(*Config) {}},
		{"spoke", 1, func(c *Config) { c.SpokesPerNode = 2 }},
		{"MultiPort", 0, func(c *Config) { c.InjectPortsPerCB = 4 }},
		{"EquiNox", 0, func(c *Config) { c.EIRGroups = map[geom.Point][]geom.Point{cb: {geom.Pt(3, 1)}} }},
	}
	for _, k := range kinds {
		for _, typ := range []PacketType{ReadRequest, ReadReply} {
			cfg := DefaultConfig("t", 4, 4)
			cfg.CBs = []geom.Point{cb}
			k.cfg(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, dst := cb.ID(cfg.Width), 15
			for i := 0; i < cfg.InjQueuePackets; i++ {
				if !n.TryInject(&Packet{ID: int64(i), Type: typ, Src: src, Dst: dst, Spoke: k.spoke}, n.Now()) {
					t.Fatalf("%s/%v: packet %d refused below the %d-packet FIFO", k.name, typ, i, cfg.InjQueuePackets)
				}
			}
			stats, inflight, niSet := n.Stats, n.InFlight(), slices.Clone(n.niSet)
			p := &Packet{ID: 99, Type: typ, Src: src, Dst: dst, Spoke: k.spoke, Flits: 7, CreatedAt: -3}
			if n.TryInject(p, n.Now()) {
				t.Fatalf("%s/%v: full FIFO accepted a packet", k.name, typ)
			}
			if n.Stats != stats || n.InFlight() != inflight || !slices.Equal(n.niSet, niSet) {
				t.Errorf("%s/%v: refused inject changed the network: stats %+v -> %+v, in flight %d -> %d, NI set %v -> %v",
					k.name, typ, stats, n.Stats, inflight, n.InFlight(), niSet, n.niSet)
			}
			if p.Flits != 7 || p.CreatedAt != -3 {
				t.Errorf("%s/%v: refused inject changed the packet: Flits %d, CreatedAt %d", k.name, typ, p.Flits, p.CreatedAt)
			}
		}
	}
}

func TestDebugDumpShowsBufferedFlits(t *testing.T) {
	n, _ := New(DefaultConfig("t", 4, 4))
	p := &Packet{Type: ReadReply, Src: 0, Dst: 15}
	n.TryInject(p, n.Now())
	n.Step()
	n.Step()
	dump := n.debugDump()
	if !strings.Contains(dump, "ReadReply") {
		t.Errorf("dump missing packet info:\n%s", dump)
	}
}
