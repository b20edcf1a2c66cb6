package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"equinox/internal/geom"
)

// schemeNetConfigs returns one network configuration per distinct router
// shape the seven evaluated schemes build (internal/sim's buildNetworks):
// the shared base mesh of SingleBase / VC-Mono / Interposer-CMesh, the
// concentrated CMesh overlay, the separate request and reply meshes, a
// narrow DA2Mesh subnet, MultiPort's widened request and reply meshes, and
// EquiNox's reply mesh with EIR injection ports. types lists the packet
// types the network carries.
func schemeNetConfigs() []struct {
	cfg   Config
	types []PacketType
} {
	// An N-Queen CB placement, and per CB the on-axis routers two hops out
	// as its EIR group — several routers serve two CBs, so port counts vary.
	cbs := []geom.Point{
		geom.Pt(0, 3), geom.Pt(1, 6), geom.Pt(2, 0), geom.Pt(3, 7),
		geom.Pt(4, 4), geom.Pt(5, 1), geom.Pt(6, 5), geom.Pt(7, 2),
	}
	eirs := map[geom.Point][]geom.Point{}
	for _, cb := range cbs {
		for _, d := range []geom.Point{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			if e := geom.Pt(cb.X+d.X, cb.Y+d.Y); e.In(8, 8) {
				eirs[cb] = append(eirs[cb], e)
			}
		}
	}
	mk := func(name string, edit func(*Config)) Config {
		c := DefaultConfig(name, 8, 8)
		c.CBs = cbs
		edit(&c)
		return c
	}
	both := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	reqs := []PacketType{ReadRequest, WriteRequest}
	reps := []PacketType{ReadReply, WriteReply}

	cmesh := DefaultConfig("Interposer-CMesh/cmesh", 4, 4)
	cmesh.FlitBytes = 32
	cmesh.Routing, cmesh.VCPolicy = RoutingXY, VCByClass
	cmesh.VCDepthFlits = SizeInFlits(ReadReply, cmesh.FlitBytes, cmesh.LineBytes)
	for id := 0; id < 16; id++ {
		cmesh.CBs = append(cmesh.CBs, geom.FromID(id, 4))
	}
	cmesh.SpokesPerNode, cmesh.EjectPortsPerCB = 4, 4

	return []struct {
		cfg   Config
		types []PacketType
	}{
		{mk("SingleBase", func(c *Config) { c.Routing, c.VCPolicy = RoutingXY, VCByClass }), both},
		{mk("VC-Mono", func(c *Config) { c.Routing, c.VCPolicy = RoutingXY, VCMonopolize }), both},
		{cmesh, both},
		{mk("SeparateBase/request", func(c *Config) {}), reqs},
		{mk("SeparateBase/reply", func(c *Config) {}), reps},
		{mk("DA2Mesh/subnet", func(c *Config) { c.FlitBytes, c.Routing = 2, RoutingXY }), reps},
		{mk("MultiPort/request", func(c *Config) { c.EjectPortsPerCB = 4 }), reqs},
		{mk("MultiPort/reply", func(c *Config) { c.InjectPortsPerCB = 4 }), reps},
		{mk("EquiNox/reply", func(c *Config) { c.EIRGroups = eirs }), reps},
	}
}

// scanMasks recomputes a router's occupancy masks from its buffers.
func (r *Router) scanMasks() (needVA, ready uint64) {
	for s := range r.vcs {
		switch vb := &r.vcs[s]; {
		case vb.empty():
		case vb.outPort == noAlloc:
			needVA |= 1 << uint(s)
		default:
			ready |= 1 << uint(s)
		}
	}
	return
}

func popcount(set []uint64) (c int) {
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}

// checkMasks compares the state the stepper maintains incrementally with a
// naive scan: every router's occupancy masks and head caches against its
// buffers, the per-phase router sets against the masks, the NI set against
// pending(), the held-node set against the ejection queues, and — with the
// arrival list counted as in flight — credit conservation on every link VC.
func checkMasks(n *Network) error {
	onLink := map[[2]int32]int{} // (router, slot) → flits arriving there
	for _, a := range n.arrivals {
		onLink[[2]int32{a.to, a.slot}]++
	}
	inVA, inSA := 0, 0
	for _, r := range n.Routers {
		needVA, ready := r.scanMasks()
		if r.needVA != needVA || r.ready != ready {
			return fmt.Errorf("router %v: needVA %#x ready %#x, scan says %#x %#x",
				r.pos, r.needVA, r.ready, needVA, ready)
		}
		if va, sa := *r.vaWord&r.bit != 0, *r.saWord&r.bit != 0; va != (needVA != 0) || sa != (ready != 0) {
			return fmt.Errorf("router %v: in the VA set %v, in the SA set %v; masks are needVA %#x ready %#x",
				r.pos, va, sa, needVA, ready)
		}
		if needVA != 0 {
			inVA++
		}
		if ready != 0 {
			inSA++
		}
		flits := 0
		for s := range r.vcs {
			vb := &r.vcs[s]
			flits += int(vb.n)
			if !vb.empty() && vb.headEntered != vb.at(n.flits, 0).enteredRouter {
				return fmt.Errorf("router %v slot %d: cached head entry cycle %d, head flit says %d",
					r.pos, s, vb.headEntered, vb.at(n.flits, 0).enteredRouter)
			}
		}
		if flits != r.inFlits {
			return fmt.Errorf("router %v: inFlits %d, buffers hold %d", r.pos, r.inFlits, flits)
		}
		for pi := range r.out {
			op := &r.out[pi]
			if op.to == noAlloc {
				continue
			}
			for vc, credits := range n.portCredits(op) {
				slot := op.toSlot + int32(vc)
				held := int(n.Routers[op.to].vcs[slot].n) + onLink[[2]int32{op.to, slot}]
				if int(credits)+held != n.Cfg.VCDepthFlits {
					return fmt.Errorf("router %v out %d vc %d: %d credits + %d flits downstream or on the link != depth %d",
						r.pos, pi, vc, credits, held, n.Cfg.VCDepthFlits)
				}
			}
		}
	}
	// Each router's bit is right, so equal counts mean no stray bits.
	if got := popcount(n.vaSet); got != inVA {
		return fmt.Errorf("VA set holds %d routers, %d have needVA", got, inVA)
	}
	if got := popcount(n.saSet); got != inSA {
		return fmt.Errorf("SA set holds %d routers, %d have ready", got, inSA)
	}
	for ix, ni := range n.nis {
		if in := n.niSet[ix>>6]>>uint(ix&63)&1 != 0; in != ni.pending() {
			return fmt.Errorf("NI %d: in the NI set %v, pending %v", ix, in, ni.pending())
		}
	}
	for node := range n.Routers {
		held := len(n.ejectQ[Request][node])+len(n.ejectQ[Reply][node]) > 0
		if in := n.heldNodes[node>>6]>>uint(node&63)&1 != 0; in != held {
			return fmt.Errorf("node %d: in the held set %v, holds a delivered packet %v", node, in, held)
		}
	}
	return checkPacketTable(n)
}

// checkPacketTable checks the slots flits name their packets by: every flit
// in a buffer or on a link names a live slot, every live slot is named by a
// flit or a loaded NI buffer, and the free stack lists exactly the empty
// slots.
func checkPacketTable(n *Network) error {
	named := make([]bool, len(n.pkts))
	for _, r := range n.Routers {
		for s := range r.vcs {
			vb := &r.vcs[s]
			for i := 0; i < int(vb.n); i++ {
				named[vb.at(n.flits, i).pkt] = true
			}
		}
	}
	for i := range n.arrivals {
		named[n.arrivals[i].f.pkt] = true
	}
	for i := range n.nis {
		for _, b := range n.nis[i].bufs {
			if b.busy() {
				if n.pkts[b.h] != b.pkt {
					return fmt.Errorf("NI %d: loaded packet %d is not in its slot %d", i, b.pkt.ID, b.h)
				}
				named[b.h] = true
			}
		}
	}
	live := 0
	for h, p := range n.pkts {
		if p != nil {
			live++
		}
		if named[h] != (p != nil) {
			return fmt.Errorf("packet table slot %d: named by a flit or buffer %v, holds a packet %v", h, named[h], p != nil)
		}
	}
	if live+len(n.freePkts) != len(n.pkts) {
		return fmt.Errorf("packet table: %d live slots and %d free of %d", live, len(n.freePkts), len(n.pkts))
	}
	for _, h := range n.freePkts {
		if n.pkts[h] != nil {
			return fmt.Errorf("packet table: free slot %d holds packet %d", h, n.pkts[h].ID)
		}
	}
	return nil
}

// flitID identifies a flit in flight.
type flitID struct {
	pkt   *Packet
	index int16
}

// headFlits snapshots the head flit of every non-empty input VC, per router.
func headFlits(n *Network) [][]flitID {
	heads := make([][]flitID, len(n.Routers))
	for i, r := range n.Routers {
		for s := range r.vcs {
			if vb := &r.vcs[s]; !vb.empty() {
				f := vb.at(n.flits, 0)
				heads[i] = append(heads[i], flitID{n.pkts[f.pkt], f.Index})
			}
		}
	}
	return heads
}

// checkArrivals compares the arrival list after a Step with the flits that
// traversed a link in it, worked out from the buffers alone: a flit crossed a
// link iff it headed an input VC of a router before the Step, is gone from
// that router's heads after it, and was not at its destination (there it
// ejected). The list must hold exactly those flits, grouped by router in
// ascending order and by ascending output port within a router, each on a
// link its router really has.
func checkArrivals(n *Network, before [][]flitID) error {
	after := headFlits(n)
	list := n.arrivals
	k := 0
	for i, r := range n.Routers {
		left := map[flitID]bool{}
		for _, f := range before[i] {
			if !slices.Contains(after[i], f) && f.pkt.Dst != r.id {
				left[f] = true
			}
		}
		lastPort := 0
		for ; k < len(list); k++ {
			a := &list[k]
			from, port := n.linkSource(a)
			if from != i {
				break
			}
			f := flitID{n.pkts[a.f.pkt], a.f.Index}
			if !left[f] {
				return fmt.Errorf("router %v: flit %d of packet %d is on the arrival list but did not leave the router", r.pos, f.index, f.pkt.ID)
			}
			delete(left, f)
			if port <= lastPort {
				return fmt.Errorf("router %v: arrival through port %d listed after port %d", r.pos, port, lastPort)
			}
			lastPort = port
			if op := &r.out[port]; op.to != a.to || a.slot < op.toSlot || a.slot >= op.toSlot+int32(n.nvc) {
				return fmt.Errorf("router %v port %d leads to router %d slots %d+, arrival says router %d slot %d",
					r.pos, port, op.to, op.toSlot, a.to, a.slot)
			}
		}
		if len(left) > 0 {
			return fmt.Errorf("router %v: %d flits left on a link but are not on the arrival list", r.pos, len(left))
		}
	}
	if k < len(list) {
		from, _ := n.linkSource(&list[k])
		return fmt.Errorf("arrival %d of %d, from router %d, is out of router order", k, len(list), from)
	}
	return nil
}

// TestMasksMatchScan pins the invariants the stepper relies on. After every
// Step: on every router needVA / ready equal what a scan of the buffers
// finds, the per-phase sets equal a scan of those masks, the arrival list
// equals the flits that traversed a link in that Step in (router, output
// port) order, and the arrival list's capacity never changes. Covered: every
// router shape the seven schemes build × {uniform, hotspot} traffic × 3
// seeds, through injection, saturation and drain.
func TestMasksMatchScan(t *testing.T) {
	for _, nc := range schemeNetConfigs() {
		for _, pattern := range []string{"uniform", "hotspot"} {
			// The "/shards0" suffix dates from a second, sharded half; it stays
			// so the subtest IDs that test-history tooling keys on do not change.
			name := fmt.Sprintf("%s/%s/shards0", strings.ReplaceAll(nc.cfg.Name, "/", "-"), pattern)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := nc.cfg
					n, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := checkMasks(n); err != nil {
						t.Fatalf("fresh network: %v", err)
					}
					links := cap(n.arrivals)
					if want := 2 * ((cfg.Width-1)*cfg.Height + cfg.Width*(cfg.Height-1)); links != want {
						t.Fatalf("the arrival list has room for %d flits, the mesh has %d links", links, want)
					}
					rng := rand.New(rand.NewSource(seed))
					nodes := cfg.Nodes()
					for cyc := 0; cyc < 2500 && (cyc < 300 || !n.Quiescent()); cyc++ {
						for k := 0; k < 6 && cyc < 300; k++ {
							typ := nc.types[rng.Intn(len(nc.types))]
							src, dst := rng.Intn(nodes), rng.Intn(nodes)
							if pattern == "hotspot" {
								// Few-to-many: requests converge on the CBs,
								// replies fan out of them.
								cb := cfg.CBs[rng.Intn(len(cfg.CBs))].ID(cfg.Width)
								if ClassOf(typ) == Request {
									dst = cb
								} else {
									src = cb
								}
							}
							n.TryInject(&Packet{Type: typ, Src: src, Dst: dst, Spoke: rng.Intn(4)}, n.Now())
						}
						heads := headFlits(n)
						n.Step()
						if err := checkMasks(n); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, cyc, err)
						}
						if err := checkArrivals(n, heads); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, cyc, err)
						}
						if got := cap(n.arrivals); got != links {
							t.Fatalf("seed %d cycle %d: arrival list capacity %d, was %d after New", seed, cyc, got, links)
						}
						// Drain slowly at first so ejection queues back up.
						if cyc%3 == 0 || cyc >= 300 {
							for node := 0; node < nodes; node++ {
								for n.PopDelivered(node) != nil {
								}
							}
						}
					}
					if !n.Quiescent() {
						t.Fatalf("seed %d: network did not drain\n%s", seed, n.DebugDump())
					}
				}
			})
		}
	}
}

// TestNIsSerializeFlits pins how NIs cut a packet into flits now that they
// build each flit as it streams: whatever the NI kind (standard, EquiNox with
// its EIR and local buffers, MultiPort, concentration spokes), a packet's
// flits enter the network with Index 0…Flits-1 in order, the first and only
// the first marked head, the last and only the last marked tail. A flit
// spends at least a cycle in the buffer it enters, so a look at every NI-fed
// input port after each Step sees every flit.
func TestNIsSerializeFlits(t *testing.T) {
	for _, nc := range schemeNetConfigs() {
		switch nc.cfg.Name {
		case "SingleBase", "EquiNox/reply", "MultiPort/reply", "Interposer-CMesh/cmesh":
		default:
			continue
		}
		t.Run(strings.ReplaceAll(nc.cfg.Name, "/", "-"), func(t *testing.T) {
			n, err := New(nc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			nodes := nc.cfg.Nodes()
			next := map[*Packet]int16{} // flits of the packet seen so far
			injected, multiFlit := 0, 0
			for cyc := 0; cyc < 3000 && (cyc < 400 || !n.Quiescent()); cyc++ {
				for k := 0; k < 3 && cyc < 400; k++ {
					// Out of the CBs, where the multi-buffer NIs sit.
					src := nc.cfg.CBs[rng.Intn(len(nc.cfg.CBs))].ID(nc.cfg.Width)
					p := &Packet{ID: int64(injected + 1), Type: nc.types[rng.Intn(len(nc.types))], Src: src, Dst: rng.Intn(nodes), Spoke: rng.Intn(4)}
					if n.TryInject(p, n.Now()) {
						injected++
						if p.Flits > 1 {
							multiFlit++
						}
					}
				}
				n.Step()
				for _, r := range n.Routers {
					for pi := range r.in {
						if r.in[pi].upCredit != noAlloc {
							continue // fed by a link, not an NI
						}
						for vc := range r.portVCs(pi) {
							for _, f := range n.bufFlits(&r.portVCs(pi)[vc]) {
								p := f.Pkt
								if f.Index < next[p] {
									continue // seen on an earlier cycle
								}
								if f.Index != next[p] {
									t.Fatalf("packet %d: flit %d entered after flit %d", p.ID, f.Index, next[p]-1)
								}
								if f.IsHead != (f.Index == 0) || f.IsTail != (int(f.Index) == p.Flits-1) {
									t.Fatalf("packet %d flit %d of %d: head %v tail %v", p.ID, f.Index, p.Flits, f.IsHead, f.IsTail)
								}
								next[p]++
							}
						}
					}
				}
				for node := 0; node < nodes; node++ {
					for p := n.PopDelivered(node); p != nil; p = n.PopDelivered(node) {
						if int(next[p]) != p.Flits {
							t.Fatalf("packet %d delivered after %d of its %d flits entered the network", p.ID, next[p], p.Flits)
						}
					}
				}
			}
			if !n.Quiescent() {
				t.Fatalf("network did not drain\n%s", n.DebugDump())
			}
			if len(next) != injected || multiFlit == 0 {
				t.Fatalf("saw the flits of %d packets, injected %d (%d multi-flit)", len(next), injected, multiFlit)
			}
		})
	}
}

// TestValidateRouterWidth: a router wider than the 64-bit occupancy masks is
// a configuration error, reported by Validate (and so by New), not a panic
// or a silent slow path.
func TestValidateRouterWidth(t *testing.T) {
	cb := geom.Pt(1, 1)
	ok := DefaultConfig("t", 4, 4)
	ok.CBs = []geom.Point{cb}
	ok.VCsPerPort = 8
	ok.InjectPortsPerCB = 4 // 5+3 input ports x 8 VCs = 64 slots: fits exactly
	if err := ok.Validate(); err != nil {
		t.Fatalf("64-slot router rejected: %v", err)
	}
	if _, err := New(ok); err != nil {
		t.Fatalf("64-slot router: %v", err)
	}

	for name, edit := range map[string]func(*Config){
		"MultiPortInject": func(c *Config) { c.InjectPortsPerCB = 5 },
		"Spokes":          func(c *Config) { c.InjectPortsPerCB, c.SpokesPerNode = 0, 5 },
		"EIRPort": func(c *Config) {
			c.InjectPortsPerCB, c.VCsPerPort = 0, 11 // 5 ports fit (55), an EIR's sixth does not
			c.EIRGroups = map[geom.Point][]geom.Point{cb: {geom.Pt(3, 1)}}
		},
		"EjectPorts": func(c *Config) { c.InjectPortsPerCB, c.VCsPerPort, c.EjectPortsPerCB = 0, 2, 61 },
	} {
		t.Run(name, func(t *testing.T) {
			c := ok
			edit(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), "at most 64") {
				t.Fatalf("Validate() = %v, want the router-width error", err)
			}
			if _, err := New(c); err == nil {
				t.Fatal("New accepted a router wider than the occupancy masks")
			}
		})
	}

	bad := DefaultConfig("t", 4, 4)
	bad.CBs = []geom.Point{geom.Pt(4, 0)}
	if err := bad.Validate(); err == nil {
		t.Error("CB outside the mesh accepted")
	}
}
