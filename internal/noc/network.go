package noc

import (
	"fmt"
	"math/bits"

	"equinox/internal/geom"
)

// Network is one physical mesh network instance with its routers, links,
// network interfaces, and ejection queues.
type Network struct {
	Cfg     Config
	Routers []*Router // index = node ID (row-major)

	nis    []ni // nis[node*spokes+spoke]
	spokes int
	// ejectQ is indexed [class][node]: requests and replies eject into
	// separate NI buffers so a backpressured request can never trap replies
	// behind it (protocol-deadlock safety at nodes receiving both classes).
	ejectQ [NumClasses][][]*Packet

	now int64

	// Stepper state: Step only visits what holds work, so idle corners of
	// the mesh cost nothing per cycle. vaSet and saSet are bitsets over
	// router IDs — "has needVA" and "has ready" — and niSet one over NI
	// indices — "pending". Walking set bits low to high visits routers and
	// NIs in ascending index order, the arbitration order of a full scan.
	vaSet, saSet []uint64
	niSet        []uint64

	// inflight counts packets between TryInject and PopDeliveredClass,
	// making Quiescent O(1) instead of a full-network scan. heldNodes is the
	// set of nodes whose ejection queues hold one of them, awaiting a Pop.
	inflight  int64
	heldNodes []uint64

	// vcs is every router's input VCs, router-major: Router.vcs is a window
	// of it, and vcBuf.down and outputPort.down index it. flits is their
	// flit rings, depth flits per VC in the same order (vcBuf.base).
	vcs   []vcBuf
	flits []Flit

	// pkts is the packet table flits name their packet by (Flit.pkt): a
	// packet takes a slot when an NI buffer loads it (admit) and gives it
	// back when its tail flit ejects, onto the freePkts stack.
	pkts     []*Packet
	freePkts []int32

	// scratch is the allocators' working memory, sized by Router.finalize.
	scratch allocScratch

	// classVCList is the precomputed per-class downstream-VC preference
	// order (see initClassVCs).
	classVCList [NumClasses][]int
	// nvc is the slot stride: the per-port VC count (see slot).
	nvc int
	// slotPort maps a slot back to its input port (slot / nvc, tabulated).
	slotPort [maskBits]uint8

	Stats Stats

	// obs are the attached observers (Observe). Every hook site tests
	// len(n.obs) first, so a network without one pays a single compare.
	obs []Observer
}

// ejectCap is the delivered packets of one class a node's ejection queue
// holds before its router stops ejecting that class.
const ejectCap = 2

// credit returns the credits the upstream router holds in cycle now for the
// link-fed VC n.vcs[d]: its free slots, less the slot a flit leaving it freed
// this cycle. That slot becomes usable upstream in the next cycle, so a slot
// freed in cycle t is usable in t+1 and not in t, whatever order routers are
// visited in. No counter is kept; the downstream VC is the one copy of the
// fact, and reading it there is exact because:
//   - each link-fed VC has exactly one upstream writer, the output port its
//     link leaves, so every flit in n was sent against these credits;
//   - links have latency 1: switch traversal deposits a flit straight into
//     the downstream VC, so no flit is between the two ends, outside n;
//   - a VC loses at most one flit per cycle (switch allocation grants an
//     input port one VC, and traverse pops it once), so one popped stamp
//     covers every slot freed this cycle.
//
// A multi-cycle link breaks the second fact: flits on the wire would have to
// be counted, which brings a per-link counter back.
func (n *Network) credit(d int32, now int64) int32 {
	b := &n.vcs[d]
	c := b.depth - b.n
	if b.popped == now {
		c--
	}
	return c
}

// EventKind is a packet lifecycle event, in the order events occur. The
// arguments a and b of Observer.Packet are kind-specific:
//
//	Created        a = traffic class (0 request, 1 reply), b = -1
//	BufferAssigned a = injection buffer index (0 local; EquiNox: 1..4 =
//	                   East..North EIR buffer; MultiPort: port index),
//	               b = input VC when chosen at assignment (-1 otherwise)
//	InjectStall    a = stall reason (StallBuffersBusy / StallNoVC / StallVCFull)
//	VCAlloc        a = output port, b = downstream VC
//	SAGrant        a = output port, b = downstream VC (head flits only)
//	LinkTraverse   a = arrival input port, b = VC (head flits only)
//	Ejected        a = total latency in cycles
type EventKind uint8

// The lifecycle events.
const (
	Created EventKind = iota
	BufferAssigned
	InjectStall
	VCAlloc
	SAGrant
	LinkTraverse
	Ejected
)

// Observer watches a network run. Observers are independent of one another
// and of attach order; neither method may allocate if Step is to stay
// allocation-free, nor retain p beyond the call.
type Observer interface {
	// Packet reports one lifecycle event of packet p at router, unfiltered,
	// with k's arguments a and b (Ejected: a is the latency, and
	// p.DeliveredAt is set). Created fires from TryInject at the caller's
	// cycle, every other kind inside Step. LinkTraverse fires as the head
	// flit leaves; it enters router in cycle now+1.
	Packet(now int64, p *Packet, k EventKind, router int, a, b int32)
	// EndCycle runs after every phase of cycle now, before the clock
	// advances.
	EndCycle(now int64)
}

// Observe attaches o to the network. Call before the first Step.
func (n *Network) Observe(o Observer) { n.obs = append(n.obs, o) }

// emit reports one lifecycle event to every observer. Callers guard it with
// len(n.obs) != 0.
func (n *Network) emit(now int64, p *Packet, k EventKind, router int, a, b int32) {
	for _, o := range n.obs {
		o.Packet(now, p, k, router, a, b)
	}
}

// meshLinks is the number of directed mesh links leaving each router, one
// per non-local direction: East, West, South, North.
const meshLinks = int(geom.NumDirections) - 1

// Occupancy fills per, indexed by router ID, with the flits each router holds
// at the end of the cycle: those buffered in its input VCs plus the NI
// injection backlog waiting to enter it. A flit deposited downstream this
// cycle is still on its link and counts toward no router yet. When links is
// non-nil it also fills links[router*4+direction-1] (East, West, South,
// North) with 1 for each mesh link holding such a flit and 0 otherwise.
//
// Call it from an Observer's EndCycle, which runs before the clock advances:
// a link holds a flit when one left through it in the cycle being closed. It
// sums the VCs rather than have every flit hop keep a count, so samplers pay
// for it on their sampling cycles only. Must not allocate.
func (n *Network) Occupancy(per, links []int64) {
	for i, r := range n.Routers {
		var f int32
		for s := range r.vcs {
			f += r.vcs[s].n
		}
		per[i] = int64(f)
	}
	for i, r := range n.Routers {
		for pi := PortEast; pi <= PortNorth; pi++ {
			var busy int64
			if r.out[pi].lastSent == n.now {
				per[r.out[pi].to]--
				busy = 1
			}
			if links != nil {
				links[i*meshLinks+int(pi)-1] = busy
			}
		}
	}
	for i := range n.nis {
		n.nis[i].backlog(per)
	}
}

// New builds a network from a configuration. Router state is laid out flat:
// routers, ports, VC buffers, their flit rings, links, NI queues and NI
// buffers are windows of a handful of per-network slabs indexed router ×
// port × VC, not separate heap objects. The big ones — the flit rings, VC
// buffers and ports — hold no pointers, so building a network is mostly
// zeroing memory the collector will never scan.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg, nvc: cfg.VCsPerPort}
	n.Stats.init()
	n.initClassVCs()
	n.spokes = 1
	if cfg.SpokesPerNode > 1 {
		n.spokes = cfg.SpokesPerNode
	}
	if n.spokes > 1 && (cfg.EIRGroups != nil || cfg.InjectPortsPerCB > 1) {
		return nil, fmt.Errorf("noc: SpokesPerNode cannot combine with EIR groups or MultiPort")
	}
	for s := range n.slotPort {
		n.slotPort[s] = uint8(s / n.nvc)
	}

	// Slabs, sized from the port plan.
	nIn, nOut := cfg.portCounts()
	totIn, totOut := 0, 0
	for id := range nIn {
		totIn += nIn[id]
		totOut += nOut[id]
	}
	nvc, depth := n.nvc, cfg.VCDepthFlits
	routers := make([]Router, cfg.Nodes())
	inPorts := make([]inputPort, totIn)
	outPorts := make([]outputPort, totOut)
	n.vcs = make([]vcBuf, totIn*nvc)
	n.flits = make([]Flit, totIn*nvc*depth)
	for i := range n.vcs {
		n.vcs[i] = vcBuf{base: int32(i * depth), depth: int32(depth), outPort: noAlloc, outVC: noAlloc, down: noAlloc, owner: noAlloc, popped: -1}
	}
	for i := range outPorts {
		outPorts[i] = outputPort{to: noAlloc, down: noAlloc, lastSent: -1, grant: noAlloc}
	}

	// Routers. Base ports are local + four directions (ports exist even on
	// the boundary — the paper notes boundary routers reuse the same template
	// — but boundary direction ports are never routed to); output ports past
	// those are MultiPort ejection ports. Input ports past the base five are
	// attached by the NIs below, within the planned window.
	base := int(geom.NumDirections)
	n.Routers = make([]*Router, len(routers))
	firstVC := make([]int, len(routers)) // Network.vcs index of each router's slot 0
	io, oo := 0, 0
	for id := range routers {
		r := &routers[id]
		firstVC[id] = io * nvc
		*r = Router{
			id:  id,
			pos: geom.FromID(id, cfg.Width),
			net: n,
			vcs: n.vcs[io*nvc : (io+nIn[id])*nvc : (io+nIn[id])*nvc],
			in:  inPorts[io : io+base : io+nIn[id]],
			out: outPorts[oo : oo+nOut[id] : oo+nOut[id]],
		}
		for d := range r.dirOut {
			r.dirOut[d] = noAlloc
		}
		r.out[PortLocal].eject = true
		for p := base; p < len(r.out); p++ {
			r.out[p].eject = true
		}
		n.Routers[id] = r
		io += nIn[id]
		oo += nOut[id]
	}
	// Mesh links. Every link has a latency of one cycle, which is what lets
	// switch traversal deposit a flit straight into the downstream buffer,
	// stamped as entering it next cycle, instead of queueing it on the link:
	// each link carries at most one flit, always due next cycle. (A
	// multi-cycle link would need a per-link queue.)
	for _, r := range n.Routers {
		for _, d := range []geom.Direction{geom.East, geom.West, geom.South, geom.North} {
			np := r.pos.Add(d.Delta())
			if !np.In(cfg.Width, cfg.Height) {
				continue
			}
			nb := n.Routers[np.ID(cfg.Width)]
			toPort := int(d.Opposite())
			op := &r.out[PortID(d)]
			op.to, op.toSlot = int32(nb.id), int32(n.slot(toPort, 0))
			op.down = int32(firstVC[nb.id]) + op.toSlot
			r.dirOut[d] = int(d)
		}
	}

	// Ejection queues, one per class per node, preallocated to the most an
	// eject-ready check can let through: ejectCap-1 waiting plus one tail per
	// ejection port in a cycle.
	ejectSlots := ejectCap - 1 + max(cfg.EjectPortsPerCB, 1)
	n.heldNodes = make([]uint64, (cfg.Nodes()+63)/64)
	ejectSlab := make([]*Packet, int(NumClasses)*cfg.Nodes()*ejectSlots)
	for c := range n.ejectQ {
		n.ejectQ[c] = make([][]*Packet, cfg.Nodes())
		for node := range n.ejectQ[c] {
			k := (c*cfg.Nodes() + node) * ejectSlots
			n.ejectQ[c][node] = ejectSlab[k : k : k+ejectSlots]
		}
	}

	// NIs, one per node and spoke, of the kind Config.niKind decides. Every
	// injection port — a router's local port and the input ports past its
	// four mesh ones — is fed by exactly one NI buffer, and every loaded
	// buffer holds a packet-table slot, so the table starts at that size.
	isCB := cfg.isCB()
	nis := len(n.Routers) * n.spokes
	bufs := totIn - (base-1)*len(n.Routers)
	n.nis = make([]ni, 0, nis)
	sl := &niSlab{
		queues: make([]*Packet, nis*int(NumClasses)*cfg.InjQueuePackets),
		bufs:   make([]injBuffer, bufs),
	}
	n.pkts, n.freePkts = make([]*Packet, 0, bufs), make([]int32, 0, bufs)
	for _, r := range n.Routers {
		switch cfg.niKind(isCB[r.id]) {
		case niSpokes:
			n.nis = append(n.nis, newNI(n, sl, r, int(PortLocal), 1))
			for k := 1; k < n.spokes; k++ {
				n.nis = append(n.nis, newNI(n, sl, r, addInjectionPort(r), 1))
			}
		case niEquiNox:
			n.nis = append(n.nis, newEquiNoxNI(n, sl, r, cfg.EIRGroups[r.pos]))
		case niMultiPort:
			n.nis = append(n.nis, newMultiPortNI(n, sl, r, cfg.InjectPortsPerCB))
		default:
			n.nis = append(n.nis, newNI(n, sl, r, int(PortLocal), 1))
		}
	}

	// Every port (MultiPort ejection, EIR and spoke injection) now exists.
	for _, r := range n.Routers {
		r.finalize()
	}
	n.niSet = make([]uint64, (len(n.nis)+63)/64)
	words := (len(n.Routers) + 63) / 64
	n.vaSet, n.saSet = make([]uint64, words), make([]uint64, words)
	for _, r := range n.Routers {
		r.vaWord, r.saWord, r.bit = &n.vaSet[r.id>>6], &n.saSet[r.id>>6], 1<<uint(r.id&63)
	}
	return n, nil
}

// Now returns the current cycle of this network's clock domain.
func (n *Network) Now() int64 { return n.now }

// TryInject enqueues a packet at its source NI (the spoke selected by
// Packet.Spoke on concentrated networks); false if the queue is full. The
// packet's Flits field is set from the network's flit width.
func (n *Network) TryInject(p *Packet, now int64) bool {
	ix := p.Src*n.spokes + p.Spoke%n.spokes
	if n.nis[ix].enqueue(p, now) {
		p.Flits = SizeInFlits(p.Type, n.Cfg.FlitBytes, n.Cfg.LineBytes)
		n.Stats.packetInjected(p, n.Cfg.FlitBytes)
		n.niSet[ix>>6] |= 1 << uint(ix&63)
		n.inflight++
		if len(n.obs) != 0 {
			n.emit(now, p, Created, p.Src, int32(ClassOf(p.Type)), noAlloc)
		}
		return true
	}
	return false
}

// PopDelivered removes and returns the oldest fully-delivered packet at a
// node, preferring replies, or nil.
func (n *Network) PopDelivered(node int) *Packet {
	if p := n.PopDeliveredClass(node, Reply); p != nil {
		return p
	}
	return n.PopDeliveredClass(node, Request)
}

// PopDeliveredClass removes and returns the oldest delivered packet of a
// class at a node, or nil.
func (n *Network) PopDeliveredClass(node int, c Class) *Packet {
	q := n.ejectQ[c][node]
	if len(q) == 0 {
		return nil
	}
	p := q[0]
	// Compact in place so the queue's backing array is reused forever.
	copy(q, q[1:])
	n.ejectQ[c][node] = q[:len(q)-1]
	if len(q) == 1 && len(n.ejectQ[1-c][node]) == 0 {
		n.heldNodes[node>>6] &^= 1 << uint(node&63)
	}
	n.inflight--
	return p
}

// NextDelivered returns the lowest node at or after from whose ejection
// queues hold a delivered packet of either class, or -1. Endpoint drains walk
// it instead of peeking every node:
//
//	for node := n.NextDelivered(0); node >= 0; node = n.NextDelivered(node + 1)
func (n *Network) NextDelivered(from int) int {
	mask := ^uint64(0) << uint(from&63)
	for w := from >> 6; w < len(n.heldNodes); w++ {
		if m := n.heldNodes[w] & mask; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		mask = ^uint64(0)
	}
	return -1
}

// PeekDeliveredClass returns the oldest delivered packet of a class at a
// node without removing it.
func (n *Network) PeekDeliveredClass(node int, c Class) *Packet {
	if len(n.ejectQ[c][node]) == 0 {
		return nil
	}
	return n.ejectQ[c][node][0]
}

// ejectReady reports whether the node can accept another ejected flit of
// the class (its reassembly/delivery queue is not saturated).
func (n *Network) ejectReady(node int, c Class) bool {
	return len(n.ejectQ[c][node]) < ejectCap
}

// admit gives p a packet-table slot for its flits to name it by.
func (n *Network) admit(p *Packet) int32 {
	if k := len(n.freePkts); k > 0 {
		h := n.freePkts[k-1]
		n.freePkts = n.freePkts[:k-1]
		n.pkts[h] = p
		return h
	}
	n.pkts = append(n.pkts, p)
	return int32(len(n.pkts) - 1)
}

// ejectPacket delivers the packet in table slot h, whose tail flit left the
// ejection port of its destination router, and frees the slot: no flit of
// the packet remains in the network.
func (n *Network) ejectPacket(h int32, now int64) {
	p := n.pkts[h]
	n.pkts[h] = nil
	n.freePkts = append(n.freePkts, h)
	p.DeliveredAt = now
	c := ClassOf(p.Type)
	n.ejectQ[c][p.Dst] = append(n.ejectQ[c][p.Dst], p)
	n.Stats.packetDelivered(p, n.Cfg)
	n.heldNodes[p.Dst>>6] |= 1 << uint(p.Dst&63)
	if len(n.obs) != 0 {
		n.emit(now, p, Ejected, p.Dst, int32(now-p.CreatedAt), 0)
	}
}

// Step advances the network by one cycle. Only routers and NIs in the
// stepper's sets are visited; everything else is provably a no-op this cycle,
// so low-load sweeps stop paying for the full mesh. Each phase walks its set
// in ascending index order, which reproduces the arbitration ordering of a
// full scan exactly (bit-identical results).
func (n *Network) Step() {
	now := n.now
	// 1. Link traversal needs no phase of its own: last cycle's switch
	// traversal already deposited every flit, stamped for this cycle, into
	// its downstream buffer.
	// 2. NI injection: every NI holding a packet streams into its router(s);
	// an NI that drained leaves the set until the next TryInject.
	for w, m := range n.niSet {
		for ; m != 0; m &= m - 1 {
			ni := &n.nis[w<<6+bits.TrailingZeros64(m)]
			ni.step(now)
			if !ni.pending() {
				n.niSet[w] &^= m & -m
			}
		}
	}
	// 3. Routing + VC allocation, then 4. switch allocation + traversal. Two
	// passes, not one per router: a cycle's VCAlloc events all precede
	// its SAGrant events. A flit traversal deposits downstream can set the
	// SA bit of a router this walk has yet to reach; visiting it is a no-op,
	// as the flit's own stamp keeps it from leaving before next cycle. Alike,
	// a slot a traversal frees is a credit upstream from next cycle on,
	// whether or not the walk has passed the upstream router (Network.credit).
	for w, m := range n.vaSet {
		for ; m != 0; m &= m - 1 {
			n.Routers[w<<6+bits.TrailingZeros64(m)].vcAllocate(now)
		}
	}
	for w, m := range n.saSet {
		for ; m != 0; m &= m - 1 {
			n.Routers[w<<6+bits.TrailingZeros64(m)].switchAllocate(now)
		}
	}
	// Close the cycle: the observers, then the clock (Occupancy reads it).
	for _, o := range n.obs {
		o.EndCycle(now)
	}
	n.Stats.cycles++
	n.now++
}

// Quiescent reports whether no packet or flit remains anywhere in the
// network (all injected traffic delivered and consumed). O(1): the inflight
// counter tracks every packet from TryInject to PopDeliveredClass, and no
// flit can outlive its packet's stay in the network.
func (n *Network) Quiescent() bool { return n.inflight == 0 }

// InFlight returns the number of packets between TryInject and
// PopDeliveredClass (the counter behind Quiescent).
func (n *Network) InFlight() int64 { return n.inflight }

// RouterAt returns the router at a tile position.
func (n *Network) RouterAt(p geom.Point) *Router {
	if !p.In(n.Cfg.Width, n.Cfg.Height) {
		return nil
	}
	return n.Routers[p.ID(n.Cfg.Width)]
}

// HeatMap returns the per-router average flit traversal cycles (Figure 4).
func (n *Network) HeatMap() []float64 {
	h := make([]float64, len(n.Routers))
	for i, r := range n.Routers {
		h[i] = r.AvgTraversalCycles()
	}
	return h
}

func (n *Network) String() string {
	return fmt.Sprintf("%s(%dx%d,%s,%s)", n.Cfg.Name, n.Cfg.Width, n.Cfg.Height, n.Cfg.Routing, n.Cfg.VCPolicy)
}
