package noc

import (
	"math/rand"
	"testing"

	"equinox/internal/geom"
)

// trackNet builds a small network and returns it.
func trackNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCreditConservation checks the fundamental flow-control invariant:
// for every link, downstream free buffer slots equal the upstream credit
// count once the network is quiescent.
func TestCreditConservation(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(9))
	for cyc := 0; cyc < 800; cyc++ {
		if cyc < 400 {
			p := &Packet{Type: ReadReply, Src: rng.Intn(16), Dst: rng.Intn(16)}
			n.TryInject(p, n.Now())
		}
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	for !n.Quiescent() && n.Now() < 100000 {
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	if !n.Quiescent() {
		t.Fatal("network did not drain")
	}
	for _, r := range n.Routers {
		for pi, op := range r.out {
			if op.to == noAlloc {
				continue
			}
			down := n.Routers[op.to].portVCs(int(n.slotPort[op.toSlot]))
			for vc, credits := range n.portCredits(&op) {
				if free := down[vc].free(); int(credits) != free {
					t.Errorf("router %v out %d vc %d: credits %d != downstream free %d",
						r.pos, pi, vc, credits, free)
				}
				if int(credits) > cfg.VCDepthFlits {
					t.Errorf("credits %d exceed depth", credits)
				}
			}
		}
	}
	// All VC allocations must be released.
	for _, r := range n.Routers {
		for _, op := range r.out {
			if op.to == noAlloc {
				continue
			}
			for vc, owner := range n.owners[op.creditBase : op.creditBase+n.nvc] {
				if owner != noAlloc {
					t.Errorf("router %v: VC %d still owned after drain", r.pos, vc)
				}
			}
		}
		for pi := range r.in {
			for _, vb := range r.portVCs(pi) {
				if vb.outPort != noAlloc {
					t.Errorf("router %v: input VC still allocated", r.pos)
				}
			}
		}
	}
}

// TestWestFirstTurnLegality verifies the turn-model restriction: a packet
// that still needs to travel west is only ever routed west.
func TestWestFirstTurnLegality(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cfg.Routing = RoutingMinimalAdaptive
	n := trackNet(t, cfg)
	// A packet heading north-west from (5,5) to (1,2).
	src := geom.Pt(5, 5).ID(8)
	dst := geom.Pt(1, 2).ID(8)
	r := n.Routers[src]
	cands := r.routeCandidates(&Packet{Type: ReadReply, Src: src, Dst: dst}, &n.scratch)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.port != int(geom.West) {
			t.Errorf("westbound packet offered non-west port %d", c.port)
		}
	}
	// Eastbound from (1,2) to (5,5): both East and South must be offered.
	r2 := n.Routers[dst]
	seen := map[int]bool{}
	for _, c := range r2.routeCandidates(&Packet{Type: ReadReply, Src: dst, Dst: src}, &n.scratch) {
		seen[c.port] = true
	}
	if !seen[int(geom.East)] || !seen[int(geom.South)] {
		t.Errorf("eastbound packet should get adaptive E+S, got %v", seen)
	}
}

// TestXYRouteFollowsDimensionOrder traces one packet hop by hop.
func TestXYRouteFollowsDimensionOrder(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cfg.Routing = RoutingXY
	n := trackNet(t, cfg)
	src := geom.Pt(1, 1).ID(8)
	dst := geom.Pt(5, 6).ID(8)
	p := &Packet{Type: ReadRequest, Src: src, Dst: dst}
	n.TryInject(p, n.Now())
	// Track which routers see traffic: with XY it must be exactly the L
	// path along y=1 then x=5.
	for i := 0; i < 200 && n.PopDelivered(dst) == nil; i++ {
		n.Step()
	}
	want := map[geom.Point]bool{}
	for x := 1; x <= 5; x++ {
		want[geom.Pt(x, 1)] = true
	}
	for y := 1; y <= 6; y++ {
		want[geom.Pt(5, y)] = true
	}
	for _, r := range n.Routers {
		onPath := want[r.pos]
		if onPath && r.flitsThrough == 0 {
			t.Errorf("XY path router %v saw no flits", r.pos)
		}
		if !onPath && r.flitsThrough != 0 {
			t.Errorf("off-path router %v saw %d flits", r.pos, r.flitsThrough)
		}
	}
}

// TestVCClassSeparation: requests never occupy the reply VC under
// VCByClass, and vice versa.
func TestVCClassSeparation(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(11))
	check := func() {
		for _, r := range n.Routers {
			for pi := range r.in {
				for vc := range r.portVCs(pi) {
					for _, f := range n.bufFlits(&r.portVCs(pi)[vc]) {
						if int(ClassOf(f.Pkt.Type)) != vc {
							t.Fatalf("class %v flit in VC %d", ClassOf(f.Pkt.Type), vc)
						}
					}
				}
			}
		}
	}
	for cyc := 0; cyc < 600; cyc++ {
		typ := ReadRequest
		if rng.Intn(2) == 0 {
			typ = ReadReply
		}
		p := &Packet{Type: typ, Src: rng.Intn(16), Dst: rng.Intn(16)}
		n.TryInject(p, n.Now())
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		check()
	}
}

// TestMonopolizeOnlyIntoEmptyVC: under VCMonopolize a reply may sit in VC0,
// but never behind another packet that was already buffered there.
func TestMonopolizeOnlyIntoEmptyVC(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCMonopolize
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(13))
	for cyc := 0; cyc < 800; cyc++ {
		typ := ReadRequest
		if rng.Intn(3) > 0 {
			typ = ReadReply // reply-heavy, forcing monopolization
		}
		p := &Packet{Type: typ, Src: rng.Intn(16), Dst: rng.Intn(16)}
		n.TryInject(p, n.Now())
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		// Invariant: within VC0 (the request VC), a reply flit may only be
		// preceded by flits of the same packet.
		for _, r := range n.Routers {
			for pi := range r.in {
				var firstPkt *Packet
				for _, f := range n.bufFlits(&r.portVCs(pi)[Request]) {
					if firstPkt == nil {
						firstPkt = f.Pkt
					}
					if ClassOf(f.Pkt.Type) == Reply && f.Pkt != firstPkt {
						t.Fatalf("borrowed reply queued behind another packet in VC0")
					}
				}
			}
		}
	}
}

// TestRequestsNeverBorrowReplyVC under monopolization.
func TestRequestsNeverBorrowReplyVC(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCMonopolize
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(17))
	for cyc := 0; cyc < 600; cyc++ {
		p := &Packet{Type: ReadRequest, Src: rng.Intn(16), Dst: rng.Intn(16)}
		n.TryInject(p, n.Now())
		for node := 0; node < 16; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		for _, r := range n.Routers {
			for pi := range r.in {
				for _, f := range n.bufFlits(&r.portVCs(pi)[Reply]) {
					if ClassOf(f.Pkt.Type) == Request {
						t.Fatal("request flit in the reply VC")
					}
				}
			}
		}
	}
}

// TestFlitOrderingWithinPacket: flits of one packet always eject in order.
func TestFlitOrderingWithinPacket(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(19))
	// Heavy multi-flit traffic.
	for cyc := 0; cyc < 1000; cyc++ {
		if cyc < 600 {
			for k := 0; k < 2; k++ {
				p := &Packet{Type: ReadReply, Src: rng.Intn(64), Dst: rng.Intn(64)}
				n.TryInject(p, n.Now())
			}
		}
		for node := 0; node < 64; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		// In-buffer invariant: flit indices of the same packet appear in
		// increasing order within each VC FIFO.
		for _, r := range n.Routers {
			for pi := range r.in {
				for vc := range r.portVCs(pi) {
					last := map[*Packet]int16{}
					for _, f := range n.bufFlits(&r.portVCs(pi)[vc]) {
						if prev, ok := last[f.Pkt]; ok && f.Index != prev+1 {
							t.Fatalf("flit order broken: %d after %d", f.Index, prev)
						}
						last[f.Pkt] = f.Index
					}
				}
			}
		}
	}
}

// TestEIRInputPortReceivesOnlyItsCB: EIR injection ports are fed solely by
// the owning CB's NI.
func TestEIRInputPortOwnership(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cb := geom.Pt(3, 3)
	other := geom.Pt(5, 5)
	cfg.CBs = []geom.Point{cb, other}
	cfg.EIRGroups = map[geom.Point][]geom.Point{
		cb:    {geom.Pt(5, 3)},
		other: {geom.Pt(5, 7)},
	}
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(23))
	for cyc := 0; cyc < 800; cyc++ {
		if cyc < 500 {
			for _, c := range cfg.CBs {
				p := &Packet{Type: ReadReply, Src: c.ID(8), Dst: rng.Intn(64)}
				n.TryInject(p, n.Now())
			}
		}
		for node := 0; node < 64; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
		// The EIR port of (5,3) (port index 5) may only hold packets whose
		// source is cb.
		eir := n.RouterAt(geom.Pt(5, 3))
		if len(eir.in) != 6 {
			t.Fatalf("EIR router has %d input ports", len(eir.in))
		}
		for vc := range eir.portVCs(5) {
			for _, f := range n.bufFlits(&eir.portVCs(5)[vc]) {
				if f.Pkt.Src != cb.ID(8) {
					t.Fatalf("foreign packet (src %d) on CB %v's EIR port", f.Pkt.Src, cb)
				}
			}
		}
	}
}

// TestHeatAccounting: occupancy cycles and flit counts are consistent.
func TestHeatAccounting(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	n := trackNet(t, cfg)
	p := &Packet{Type: ReadReply, Src: 0, Dst: 15}
	n.TryInject(p, n.Now())
	for i := 0; i < 400 && n.PopDelivered(15) == nil; i++ {
		n.Step()
	}
	var flits int64
	for _, r := range n.Routers {
		flits += r.FlitsThrough()
		if r.FlitsThrough() > 0 && r.AvgTraversalCycles() < 1 {
			t.Errorf("router %v avg traversal %.2f < 1 cycle", r.pos, r.AvgTraversalCycles())
		}
	}
	// 9 flits × (6 hops + ejection hop) traversals.
	if flits != 9*7 {
		t.Errorf("total flit traversals %d, want 63", flits)
	}
	if n.Stats.FlitHops != flits {
		t.Errorf("Stats.FlitHops %d != per-router sum %d", n.Stats.FlitHops, flits)
	}
	if n.Stats.LinkFlits+n.Stats.EjectFlits != flits {
		t.Error("link+eject flits don't add up")
	}
}

// TestAdaptiveSpreadsLoad: under heavy single-source traffic, west-first
// adaptive routing uses both productive directions out of the source.
func TestAdaptiveSpreadsLoad(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cfg.Routing = RoutingMinimalAdaptive
	n := trackNet(t, cfg)
	rng := rand.New(rand.NewSource(29))
	src := geom.Pt(0, 0).ID(8)
	for cyc := 0; cyc < 2000; cyc++ {
		// All traffic to the south-east quadrant.
		dst := geom.Pt(4+rng.Intn(4), 4+rng.Intn(4)).ID(8)
		p := &Packet{Type: ReadReply, Src: src, Dst: dst}
		n.TryInject(p, n.Now())
		for node := 0; node < 64; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	east := n.RouterAt(geom.Pt(1, 0)).FlitsThrough()
	south := n.RouterAt(geom.Pt(0, 1)).FlitsThrough()
	if east == 0 || south == 0 {
		t.Fatalf("adaptive did not use both directions: east=%d south=%d", east, south)
	}
	ratio := float64(east) / float64(south)
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("adaptive load split very skewed: east=%d south=%d", east, south)
	}
}

// heldFlit is a buffered flit with its packet looked up (test helper).
type heldFlit struct {
	*Flit
	Pkt *Packet
}

// bufFlits returns vb's buffered flits oldest first (test helper: the ring
// has no contiguous view).
func (n *Network) bufFlits(vb *vcBuf) []heldFlit {
	fl := make([]heldFlit, vb.n)
	for i := range fl {
		f := vb.at(n.flits, i)
		fl[i] = heldFlit{f, n.pkts[f.pkt]}
	}
	return fl
}
