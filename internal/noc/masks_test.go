package noc

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/placement"
)

// schemeNet is one network configuration of schemeNetConfigs and the packet
// types it carries.
type schemeNet struct {
	cfg   Config
	types []PacketType
}

// schemeNetConfigs returns, for a size×size mesh with size CBs, one network
// configuration per distinct router shape the seven evaluated schemes build
// (internal/sim's buildNetworks): the shared base mesh of SingleBase /
// VC-Mono / Interposer-CMesh, the concentrated CMesh overlay, the separate
// request and reply meshes, a narrow DA2Mesh subnet, MultiPort's widened
// request and reply meshes, and EquiNox's reply mesh with EIR injection
// ports.
func schemeNetConfigs(t testing.TB, size int) []schemeNet {
	// An N-Queen CB placement, and per CB the on-axis routers two hops out
	// as its EIR group — several routers serve two CBs, so port counts vary.
	cbs := []geom.Point{
		geom.Pt(0, 3), geom.Pt(1, 6), geom.Pt(2, 0), geom.Pt(3, 7),
		geom.Pt(4, 4), geom.Pt(5, 1), geom.Pt(6, 5), geom.Pt(7, 2),
	}
	if size != 8 {
		pl, err := placement.New(placement.NQueen, size, size, size)
		if err != nil {
			t.Fatal(err)
		}
		cbs = pl.CBs
	}
	eirs := map[geom.Point][]geom.Point{}
	for _, cb := range cbs {
		for _, d := range []geom.Point{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			if e := geom.Pt(cb.X+d.X, cb.Y+d.Y); e.In(size, size) {
				eirs[cb] = append(eirs[cb], e)
			}
		}
	}
	mk := func(name string, edit func(*Config)) Config {
		c := DefaultConfig(name, size, size)
		c.CBs = cbs
		edit(&c)
		return c
	}
	both := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	reqs := []PacketType{ReadRequest, WriteRequest}
	reps := []PacketType{ReadReply, WriteReply}

	half := size / 2
	cmesh := DefaultConfig("Interposer-CMesh/cmesh", half, half)
	cmesh.FlitBytes = 32
	cmesh.Routing, cmesh.VCPolicy = RoutingXY, VCByClass
	cmesh.VCDepthFlits = SizeInFlits(ReadReply, cmesh.FlitBytes, cmesh.LineBytes)
	for id := 0; id < half*half; id++ {
		cmesh.CBs = append(cmesh.CBs, geom.FromID(id, half))
	}
	cmesh.SpokesPerNode, cmesh.EjectPortsPerCB = 4, 4

	return []schemeNet{
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

// driveTraffic runs one seeded traffic pattern through n: six packets a
// cycle for 300 cycles — "uniform" between random nodes, or "hotspot",
// requests converging on the CBs and replies fanning out of them — then
// runs until the network drains, failing if it does not within maxCycles,
// or if no flit crosses a router for stallCycles while packets are in
// flight (FuzzStepInvariants' no-progress bound). Delivered packets are
// popped slowly at first, so ejection queues back up. step is called in
// place of every Step, with the cycle and the flits of every packet injected
// so far; it must call n.Step.
func driveTraffic(t *testing.T, n *Network, nc schemeNet, pattern string, seed int64, maxCycles int, step func(cyc int, injectedFlits int64)) {
	t.Helper()
	const stallCycles = 1000
	cfg := nc.cfg
	rng := rand.New(rand.NewSource(seed))
	nodes := cfg.Nodes()
	var injected, hops int64
	moved := 0 // the last cycle a flit crossed a router, or the network was empty
	for cyc := 0; cyc < maxCycles && (cyc < 300 || !n.Quiescent()); cyc++ {
		if h := n.Stats.FlitHops; h != hops || n.Quiescent() {
			hops, moved = h, cyc
		} else if cyc-moved == stallCycles {
			t.Fatalf("seed %d: no flit moved for %d cycles, %d packets in flight\n%s", seed, stallCycles, n.InFlight(), n.debugDump())
		}
		for k := 0; k < 6 && cyc < 300; k++ {
			typ := nc.types[rng.Intn(len(nc.types))]
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			if pattern == "hotspot" {
				cb := cfg.CBs[rng.Intn(len(cfg.CBs))].ID(cfg.Width)
				if ClassOf(typ) == Request {
					dst = cb
				} else {
					src = cb
				}
			}
			if p := (&Packet{ID: int64(6*cyc + k + 1), Type: typ, Src: src, Dst: dst, Spoke: rng.Intn(4)}); n.TryInject(p, n.Now()) {
				injected += int64(p.Flits)
			}
		}
		step(cyc, injected)
		if cyc%3 == 0 || cyc >= 300 {
			for node := 0; node < nodes; node++ {
				for n.PopDelivered(node) != nil {
				}
			}
		}
	}
	if !n.Quiescent() {
		t.Fatalf("seed %d: network did not drain\n%s", seed, n.debugDump())
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
// pending(), and the held-node set against the ejection queues. It then
// checks conservation (checkConservation) and the packet table.
func checkMasks(n *Network) error {
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
		for s := range r.vcs {
			vb := &r.vcs[s]
			if !vb.empty() && vb.headEntered != vb.at(n.flits, 0).enteredRouter {
				return fmt.Errorf("router %v slot %d: cached head entry cycle %d, head flit says %d",
					r.pos, s, vb.headEntered, vb.at(n.flits, 0).enteredRouter)
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

// checkStep runs every invariant check that holds between Steps: the masks,
// sets and packet table (checkMasks), conservation, VC ownership and flit
// order; and once the network is quiescent, that a full scan agrees and no
// VC is still owned or allocated. injectedFlits is the flits of every packet
// injected so far.
func checkStep(n *Network, injectedFlits int64) error {
	if err := checkMasks(n); err != nil {
		return err
	}
	if err := checkConservation(n, injectedFlits); err != nil {
		return err
	}
	if err := checkOwnership(n); err != nil {
		return err
	}
	if err := checkFlitOrder(n); err != nil {
		return err
	}
	if !n.Quiescent() {
		return nil
	}
	if !n.quiescentScan() {
		return fmt.Errorf("quiescent, but a scan finds work left")
	}
	for d := range n.vcs {
		if vb := &n.vcs[d]; vb.owner != noAlloc || vb.outPort != noAlloc {
			return fmt.Errorf("quiescent, but VC %d is owned by slot %d and allocated port %d", d, vb.owner, vb.outPort)
		}
	}
	return nil
}

// checkConservation checks, between Steps, that no VC holds more than
// VCDepthFlits flits — a flit sent without a credit would overrun its ring —
// and that every flit the NIs have streamed (injectedFlits less what the NIs
// still hold) is buffered in some router or has ejected.
func checkConservation(n *Network, injectedFlits int64) error {
	var buffered int64
	for _, r := range n.Routers {
		for s := range r.vcs {
			vb := &r.vcs[s]
			if vb.n > vb.depth {
				return fmt.Errorf("router %v slot %d: %d flits in a VC %d deep", r.pos, s, vb.n, vb.depth)
			}
			buffered += int64(vb.n)
		}
	}
	backlog := make([]int64, len(n.Routers))
	for i := range n.nis {
		n.nis[i].backlog(backlog)
	}
	streamed := injectedFlits
	for _, f := range backlog {
		streamed -= f
	}
	if ejected := n.Stats.EjectFlits; streamed != buffered+ejected {
		return fmt.Errorf("NIs streamed %d flits, routers buffer %d and %d ejected", streamed, buffered, ejected)
	}
	return nil
}

// checkOwnership checks VC ownership, whose one record is the downstream
// vcBuf.owner, against the input VC allocations that name it: an input VC
// allocated a link names the downstream VC its output port and VC lead to,
// and that VC's owner is its slot; an input VC allocated an ejection port
// names none; and every owned VC is named by exactly one allocation, every
// free one by none.
func checkOwnership(n *Network) error {
	named := make([]int, len(n.vcs))
	for _, r := range n.Routers {
		for s := range r.vcs {
			vb := &r.vcs[s]
			if vb.outPort == noAlloc {
				continue
			}
			op := &r.out[vb.outPort]
			switch {
			case op.eject && vb.down != noAlloc:
				return fmt.Errorf("router %v slot %d: ejecting, but holds downstream VC %d", r.pos, s, vb.down)
			case op.eject:
				continue
			case vb.down != op.down+vb.outVC:
				return fmt.Errorf("router %v slot %d: allocated port %d VC %d, holds downstream VC %d, not %d",
					r.pos, s, vb.outPort, vb.outVC, vb.down, op.down+vb.outVC)
			case n.vcs[vb.down].owner != int32(s):
				return fmt.Errorf("router %v slot %d: holds downstream VC %d, whose owner is slot %d",
					r.pos, s, vb.down, n.vcs[vb.down].owner)
			}
			named[vb.down]++
		}
	}
	for d := range n.vcs {
		if owner := n.vcs[d].owner; named[d] > 1 || (owner != noAlloc) != (named[d] == 1) {
			return fmt.Errorf("VC %d: owner %d, named by %d allocations", d, owner, named[d])
		}
	}
	return nil
}

// checkFlitOrder checks every VC's flits in ring order: a flit after a
// non-tail is the next flit of the same packet, and a flit after a tail
// starts a new packet at index 0. A VC may hold flits of two packets — its
// owner is released as soon as the first packet's tail leaves upstream
// (BookSim's wait_for_tail_credit = 0) — but never interleaved.
func checkFlitOrder(n *Network) error {
	for _, r := range n.Routers {
		for s := range r.vcs {
			vb := &r.vcs[s]
			for i := 1; i < int(vb.n); i++ {
				prev, f := vb.at(n.flits, i-1), vb.at(n.flits, i)
				if prev.IsTail && (f.pkt == prev.pkt || f.Index != 0) ||
					!prev.IsTail && (f.pkt != prev.pkt || f.Index != prev.Index+1) {
					return fmt.Errorf("router %v slot %d: flit %d of packet %d follows flit %d (tail %v) of packet %d",
						r.pos, s, f.Index, n.pkts[f.pkt].ID, prev.Index, prev.IsTail, n.pkts[prev.pkt].ID)
				}
			}
		}
	}
	return nil
}

// linkFed reports whether input port pi of r is fed by a mesh link, not an
// NI: links are symmetric, so port pi (East..North) is fed iff r has an
// output port into the neighbour that way.
func linkFed(r *Router, pi int) bool {
	return pi >= int(PortEast) && pi <= int(PortNorth) && r.out[pi].to != noAlloc
}

// checkPacketTable checks the slots flits name their packets by: every
// buffered flit names a live slot, every live slot is named by a flit or a
// loaded NI buffer, and the free stack lists exactly the empty slots.
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

// buffers is a snapshot of every router's input VCs: the head flit of each
// non-empty one, and the flits each holds, by slot.
type buffers struct {
	heads [][]flitID
	held  [][]int32
}

// snapshot takes a buffers snapshot of n.
func snapshot(n *Network) buffers {
	b := buffers{make([][]flitID, len(n.Routers)), make([][]int32, len(n.Routers))}
	for i, r := range n.Routers {
		b.held[i] = make([]int32, len(r.vcs))
		for s := range r.vcs {
			vb := &r.vcs[s]
			b.held[i][s] = vb.n
			if !vb.empty() {
				f := vb.at(n.flits, 0)
				b.heads[i] = append(b.heads[i], flitID{n.pkts[f.pkt], f.Index})
			}
		}
	}
	return b
}

// linkSource names the link into input slot of router to by its near end:
// the flit entered input port d, so it left the neighbour on that side
// through the opposite output port.
func (n *Network) linkSource(to, slot int32) (router, port int) {
	d := geom.Direction(n.slotPort[slot])
	return n.Routers[to].pos.Add(d.Delta()).ID(n.Cfg.Width), int(d.Opposite())
}

// deposit is one flit switch traversal left in a downstream buffer.
type deposit struct {
	to, slot   int32 // downstream router and input slot
	from, port int   // the link's near end
	f          flitID
}

// checkDeposits compares the flits the last Step deposited over links with
// the flits that traversed a link in it, worked out from the buffers alone.
// A deposit is the newest flit of a link-fed input VC stamped as entering
// next cycle (n.Now() after the Step); a flit traversed a link iff it headed
// an input VC of a router before the Step, is gone from that router's heads
// after it, and was not at its destination (there it ejected). The two sets
// must be equal, each on a link its router really has, and a link must read
// busy (lastSent) exactly when it carried one of them. No flit may land in a
// VC that was full when the Step began: the upstream router had no credit
// for it, as a credit returned in a cycle is only usable in the next. Given a
// log, its LinkTraverse events of the Step must name the deposited head
// flits in (router, output port) order, the order they are emitted in.
func checkDeposits(n *Network, before buffers, log *linkLog) error {
	now := n.Now()
	var deps []deposit
	for _, r := range n.Routers {
		for pi := range r.in {
			if !linkFed(r, pi) {
				continue // fed by an NI, not a link
			}
			for vc := 0; vc < n.nvc; vc++ {
				slot := int32(n.slot(pi, vc))
				vb := &r.vcs[slot]
				if vb.empty() {
					continue
				}
				f := vb.at(n.flits, int(vb.n)-1)
				if f.enteredRouter > now {
					return fmt.Errorf("router %v slot %d: flit stamped %d, after next cycle %d", r.pos, slot, f.enteredRouter, now)
				}
				if f.enteredRouter == now {
					from, port := n.linkSource(int32(r.id), slot)
					deps = append(deps, deposit{int32(r.id), slot, from, port, flitID{n.pkts[f.pkt], f.Index}})
				}
			}
		}
	}
	after := snapshot(n).heads
	left := make([]map[flitID]bool, len(n.Routers))
	for i, r := range n.Routers {
		left[i] = map[flitID]bool{}
		for _, f := range before.heads[i] {
			if !slices.Contains(after[i], f) && f.pkt.Dst != r.id {
				left[i][f] = true
			}
		}
	}
	sent := map[[2]int]bool{}
	for _, d := range deps {
		r := n.Routers[d.from]
		if !left[d.from][d.f] {
			return fmt.Errorf("router %v: flit %d of packet %d was deposited downstream but did not leave the router", r.pos, d.f.index, d.f.pkt.ID)
		}
		delete(left[d.from], d.f)
		if before.held[d.to][d.slot] >= int32(n.Cfg.VCDepthFlits) {
			return fmt.Errorf("router %v port %d: flit deposited into router %d slot %d, full when the cycle began", r.pos, d.port, d.to, d.slot)
		}
		if sent[[2]int{d.from, d.port}] {
			return fmt.Errorf("router %v port %d: two flits deposited over one link in a cycle", r.pos, d.port)
		}
		sent[[2]int{d.from, d.port}] = true
		if op := &r.out[d.port]; op.to != d.to || d.slot < op.toSlot || d.slot >= op.toSlot+int32(n.nvc) {
			return fmt.Errorf("router %v port %d leads to router %d slots %d+, deposit is in router %d slot %d",
				r.pos, d.port, op.to, op.toSlot, d.to, d.slot)
		}
	}
	for i, r := range n.Routers {
		if len(left[i]) > 0 {
			return fmt.Errorf("router %v: %d flits left on a link but were not deposited downstream", r.pos, len(left[i]))
		}
		for pi := PortEast; pi <= PortNorth; pi++ {
			if busy := r.out[pi].lastSent == now-1; busy != sent[[2]int{i, int(pi)}] {
				return fmt.Errorf("router %v port %d: link busy %v, carried a flit %v", r.pos, pi, busy, !busy)
			}
		}
	}
	if log == nil {
		return nil
	}
	slices.SortFunc(deps, func(a, b deposit) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.port, b.port)
	})
	k := 0
	for _, d := range deps {
		if d.f.index != 0 {
			continue
		}
		if k == len(log.evs) {
			return fmt.Errorf("router %d port %d: head flit of packet %d crossed a link with no LinkTraverse event", d.from, d.port, d.f.pkt.ID)
		}
		ev := log.evs[k]
		port := int32(n.slotPort[d.slot])
		if ev.pkt != d.f.pkt.ID || ev.now != now-1 || int32(ev.router) != d.to || ev.a != port || ev.b != d.slot-port*int32(n.nvc) {
			return fmt.Errorf("LinkTraverse event %d is %+v, want packet %d entering router %d slot %d from cycle %d (from router %d port %d)",
				k, ev, d.f.pkt.ID, d.to, d.slot, now, d.from, d.port)
		}
		k++
	}
	if k != len(log.evs) {
		return fmt.Errorf("%d LinkTraverse events in the Step, %d head flits crossed a link", len(log.evs), k)
	}
	return nil
}

// linkLog is a test observer keeping the LinkTraverse events of one Step;
// the caller empties evs before each Step.
type linkLog struct{ evs []linkEvent }

// linkEvent is one LinkTraverse event's arguments.
type linkEvent struct {
	now, pkt int64
	router   int
	a, b     int32
}

func (l *linkLog) Packet(now int64, p *Packet, k EventKind, router int, a, b int32) {
	if k == LinkTraverse {
		l.evs = append(l.evs, linkEvent{now, p.ID, router, a, b})
	}
}

func (*linkLog) EndCycle(int64) {}

// TestMasksMatchScan pins the invariants the stepper relies on. After every
// Step: on every router needVA / ready equal what a scan of the buffers
// finds, the per-phase sets equal a scan of those masks, conservation and
// VC ownership and flit order hold (checkStep), the flits deposited over
// links equal the flits that traversed a link in that Step, and the Step's
// LinkTraverse events name them in (router, output port) order. Covered:
// every router shape the seven schemes build × {uniform, hotspot} traffic ×
// 3 seeds, through injection, saturation and drain.
func TestMasksMatchScan(t *testing.T) {
	for _, nc := range schemeNetConfigs(t, 8) {
		for _, pattern := range []string{"uniform", "hotspot"} {
			// The "/shards0" suffix dates from a second, sharded half; it stays
			// so the subtest IDs that test-history tooling keys on do not change.
			name := fmt.Sprintf("%s/%s/shards0", strings.ReplaceAll(nc.cfg.Name, "/", "-"), pattern)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					n, err := New(nc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					log := &linkLog{}
					n.Observe(log)
					if err := checkStep(n, 0); err != nil {
						t.Fatalf("fresh network: %v", err)
					}
					driveTraffic(t, n, nc, pattern, seed, 2500, func(cyc int, injected int64) {
						before := snapshot(n)
						log.evs = log.evs[:0]
						n.Step()
						if err := checkStep(n, injected); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, cyc, err)
						}
						if err := checkDeposits(n, before, log); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, cyc, err)
						}
					})
				}
			})
		}
	}
}

// TestConservation checks after every Step that no VC overfills, that every
// flit the NIs streamed is buffered or ejected (checkConservation), that
// VC ownership matches the allocations (checkOwnership) and that every VC
// holds its flits in order (checkFlitOrder), over every router
// shape the seven schemes build, uniform and hotspot traffic, on 8×8 and
// 16×16 meshes. At 16×16 the stepper's router sets span four words, so a
// flit can be deposited into a router the same switch-allocation walk has
// yet to visit; the deposit checks run there too.
func TestConservation(t *testing.T) {
	for _, size := range []int{8, 16} {
		for _, nc := range schemeNetConfigs(t, size) {
			for _, pattern := range []string{"uniform", "hotspot"} {
				name := fmt.Sprintf("%dx%d/%s/%s", size, size, strings.ReplaceAll(nc.cfg.Name, "/", "-"), pattern)
				t.Run(name, func(t *testing.T) {
					n, err := New(nc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					driveTraffic(t, n, nc, pattern, 11, 20000, func(cyc int, injected int64) {
						before := snapshot(n)
						n.Step()
						if err := checkConservation(n, injected); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
						if err := checkOwnership(n); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
						if err := checkFlitOrder(n); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
						if err := checkDeposits(n, before, nil); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
					})
				})
			}
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
	for _, nc := range schemeNetConfigs(t, 8) {
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
						if linkFed(r, pi) {
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
				t.Fatalf("network did not drain\n%s", n.debugDump())
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

// quiescentScan is the full-network reference implementation of Quiescent,
// kept for tests that cross-check the O(1) counter.
func (n *Network) quiescentScan() bool {
	for i := range n.nis {
		if n.nis[i].pending() {
			return false
		}
	}
	for i := range n.vcs {
		if !n.vcs[i].empty() {
			return false
		}
	}
	for c := range n.ejectQ {
		for _, q := range n.ejectQ[c] {
			if len(q) > 0 {
				return false
			}
		}
	}
	return true
}

// debugDump renders the live buffer state of every router: for each input
// port VC with flits, the head packet, its allocation, and the blocking
// condition. Diagnostic aid for deadlock analysis.
func (n *Network) debugDump() string {
	var b []byte
	add := func(s string) { b = append(b, s...) }
	for _, r := range n.Routers {
		hdr := false
		for pi := range r.in {
			vcs := r.portVCs(pi)
			for vi := range vcs {
				vb := &vcs[vi]
				if vb.empty() {
					continue
				}
				if !hdr {
					add(fmt.Sprintf("router %v (node %d):\n", r.pos, r.id))
					hdr = true
				}
				p := n.pkts[vb.at(n.flits, 0).pkt]
				reason := "?"
				if vb.outPort == noAlloc {
					reason = "awaiting VC alloc"
				} else {
					op := &r.out[vb.outPort]
					if op.eject {
						if !n.ejectReady(r.id, ClassOf(p.Type)) {
							reason = "eject queue full"
						} else {
							reason = "eject ready"
						}
					} else if n.credit(vb.down, n.now) <= 0 {
						reason = "no credits"
					} else {
						reason = "has credits"
					}
				}
				add(fmt.Sprintf("  in[%d].vc[%d]: %d flits, head pkt %v %d->%d out=%d/%d (%s)\n",
					pi, vi, vb.n, p.Type, p.Src, p.Dst, vb.outPort, vb.outVC, reason))
			}
		}
	}
	return string(b)
}
