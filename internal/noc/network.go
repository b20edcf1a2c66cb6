package noc

import (
	"fmt"
	"math/bits"

	"equinox/internal/flight"
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
	ejectQ   [NumClasses][][]*Packet
	ejectCap int

	now          int64
	lastProgress int64

	// Stepper state: Step only visits what holds work, so idle corners of
	// the mesh cost nothing per cycle. arrivals lists the flits that crossed a
	// link in the last cycle's switch traversal, in (router, output port)
	// order; its capacity is the number of links, so it never grows. vaSet and
	// saSet are bitsets over router IDs — "has needVA" and "has ready" — and
	// niSet one over NI indices — "pending". Walking set bits low to high
	// visits routers and NIs in ascending index order, the arbitration order
	// of a full scan.
	arrivals     []arrival
	vaSet, saSet []uint64
	niSet        []uint64

	// inflight counts packets between TryInject and PopDeliveredClass,
	// making Quiescent O(1) instead of a full-network scan. heldNodes is the
	// set of nodes whose ejection queues hold one of them, awaiting a Pop.
	inflight  int64
	heldNodes []uint64

	// flits is every input VC's flit ring, depth flits per VC in the order
	// of the VC buffers (vcBuf.base).
	flits []Flit

	// pkts is the packet table flits name their packet by (Flit.pkt): a
	// packet takes a slot when an NI buffer loads it (admit) and gives it
	// back when its tail flit ejects, onto the freePkts stack.
	pkts     []*Packet
	freePkts []int32

	// creditSlab holds every output port's per-VC credit counters and owners
	// the input slot owning each downstream VC, both indexed
	// outputPort.creditBase + VC. credits holds the creditSlab indices of the
	// credits switch traversal returned upstream this cycle; Step applies
	// them once the phase is over. This is a timing property of the router
	// model: a buffer slot freed in cycle t is visible to the upstream router
	// in cycle t+1, whatever order routers are visited in.
	creditSlab []int32
	owners     []int32
	credits    []int32

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

	// flight, when attached, records per-packet lifecycle events into a
	// preallocated ring; nil costs one pointer compare per hook site.
	flight *flight.Recorder

	// onDelivered and onCycle are the append-only hook lists (OnDelivered,
	// OnCycle). The probe samples on onCycle; the telemetry sampler is an
	// entry on both.
	onDelivered []func(*Packet)
	onCycle     []cycleHook
}

// cycleHook is one OnCycle registration.
type cycleHook struct {
	every int64
	fn    func(now int64)
}

// OnDelivered registers fn to be called for every packet as its tail flit
// ejects, once the delivery timestamp is set. Hooks are independent of one
// another and run in registration order; fn must not retain the packet's
// payload beyond the call.
func (n *Network) OnDelivered(fn func(*Packet)) {
	n.onDelivered = append(n.onDelivered, fn)
}

// OnCycle registers fn to be called at the end of every cycle whose number is
// a multiple of every (>= 1), once each phase effect of the cycle has been
// applied and before the clock advances. Hooks run in registration order; fn
// must not allocate if Step is to stay allocation-free.
func (n *Network) OnCycle(every int64, fn func(now int64)) {
	n.onCycle = append(n.onCycle, cycleHook{every, fn})
}

// occupancy fills per, indexed by router ID, with the flits each router holds:
// those buffered in its input VCs plus the NI injection backlog waiting to
// enter it. Both samplers read it; see Probe.sample for why the NI term
// matters. Must not allocate.
func (n *Network) occupancy(per []int64) {
	for i, r := range n.Routers {
		per[i] = int64(r.inFlits)
	}
	for i := range n.nis {
		n.nis[i].backlog(per)
	}
}

// New builds a network from a configuration. Router state is laid out flat:
// routers, ports, VC buffers, their flit rings, credit/owner counters, links,
// NI queues and NI buffers are windows of a handful of per-network slabs
// indexed router × port × VC, not separate heap objects. The big ones — the
// flit rings, VC buffers, ports and counters — hold no pointers, so building
// a network is mostly zeroing memory the collector will never scan.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg, ejectCap: 2, nvc: cfg.VCsPerPort}
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
	vcs := make([]vcBuf, totIn*nvc)
	n.flits = make([]Flit, totIn*nvc*depth)
	counters := make([]int32, 2*totOut*nvc)
	n.creditSlab, n.owners = counters[:totOut*nvc:totOut*nvc], counters[totOut*nvc:]
	for i := range vcs {
		vcs[i] = vcBuf{base: int32(i * depth), depth: int32(depth), outPort: noAlloc, outVC: noAlloc, credit: noAlloc}
	}
	for i := range inPorts {
		inPorts[i].upCredit = noAlloc
	}
	for i := range n.creditSlab {
		n.creditSlab[i], n.owners[i] = int32(depth), noAlloc
	}
	for i := range outPorts {
		outPorts[i] = outputPort{to: noAlloc, creditBase: i * nvc, grant: noAlloc}
	}

	// Routers. Base ports are local + four directions (ports exist even on
	// the boundary — the paper notes boundary routers reuse the same template
	// — but boundary direction ports are never routed to); output ports past
	// those are MultiPort ejection ports. Input ports past the base five are
	// attached by the NIs below, within the planned window.
	base := int(geom.NumDirections)
	n.Routers = make([]*Router, len(routers))
	io, oo := 0, 0
	for id := range routers {
		r := &routers[id]
		*r = Router{
			id:   id,
			pos:  geom.FromID(id, cfg.Width),
			net:  n,
			node: id,
			vcs:  vcs[io*nvc : (io+nIn[id])*nvc : (io+nIn[id])*nvc],
			in:   inPorts[io : io+base : io+nIn[id]],
			out:  outPorts[oo : oo+nOut[id] : oo+nOut[id]],
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
	// one arrival list stand in for per-link queues: each link carries at most
	// one flit, always due next cycle. (A multi-cycle link would need one list
	// per due cycle.) The list is sized to the link count below.
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
			r.dirOut[d] = int(d)
			nb.in[toPort].upCredit = op.creditBase
		}
	}

	// Ejection queues, one per class per node, preallocated to the most an
	// eject-ready check can let through: ejectCap-1 waiting plus one tail per
	// ejection port in a cycle.
	ejectSlots := n.ejectCap - 1 + max(cfg.EjectPortsPerCB, 1)
	n.heldNodes = make([]uint64, (cfg.Nodes()+63)/64)
	ejectSlab := make([]*Packet, int(NumClasses)*cfg.Nodes()*ejectSlots)
	for c := range n.ejectQ {
		n.ejectQ[c] = make([][]*Packet, cfg.Nodes())
		for node := range n.ejectQ[c] {
			k := (c*cfg.Nodes() + node) * ejectSlots
			n.ejectQ[c][node] = ejectSlab[k : k : k+ejectSlots]
		}
	}

	// NIs, one per node and spoke: concentrated nodes get an independent
	// baseline NI per spoke, CB tiles with an EIR group the EquiNox NI, CB
	// tiles with InjectPortsPerCB > 1 the MultiPort NI, the rest the baseline.
	// Every injection port — a router's local port and the input ports past
	// its four mesh ones — is fed by exactly one NI buffer, and every loaded
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
		switch {
		case n.spokes > 1:
			n.nis = append(n.nis, newNI(n, sl, r, int(PortLocal), 1))
			for k := 1; k < n.spokes; k++ {
				n.nis = append(n.nis, newNI(n, sl, r, addInjectionPort(r), 1))
			}
		case cfg.EIRGroups != nil && isCB[r.id]:
			n.nis = append(n.nis, newEquiNoxNI(n, sl, r, cfg.EIRGroups[r.pos]))
		case cfg.InjectPortsPerCB > 1 && isCB[r.id]:
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
	links := 0
	for _, r := range n.Routers {
		r.vaWord, r.saWord, r.bit = &n.vaSet[r.id>>6], &n.saSet[r.id>>6], 1<<uint(r.id&63)
		for i := range r.out {
			if r.out[i].to != noAlloc {
				links++
			}
		}
	}
	n.arrivals = make([]arrival, 0, links)
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
		if n.flight != nil {
			n.flightRecord(now, p, flight.Created, p.Src, int32(ClassOf(p.Type)), noAlloc)
		}
		return true
	}
	return false
}

// InjectSpace returns the free packet slots at a node's NI queue (spoke 0).
func (n *Network) InjectSpace(node int) int { return n.nis[node*n.spokes].space() }

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
	return len(n.ejectQ[c][node]) < n.ejectCap
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
	if fr := n.flight; fr != nil {
		lat := now - p.CreatedAt
		n.flightRecord(now, p, flight.Ejected, p.Dst, int32(lat), 0)
		// Every ejection (sampled or not) feeds the watchdogs: the
		// starvation detector must observe unsampled progress too.
		fr.EjectObserved(now, p.ID, lat, fr.Hit(p.ID))
	}
	n.heldNodes[p.Dst>>6] |= 1 << uint(p.Dst&63)
	for _, fn := range n.onDelivered {
		fn(p)
	}
}

// Step advances the network by one cycle. Only routers and NIs in the
// stepper's sets are visited; everything else is provably a no-op this cycle,
// so low-load sweeps stop paying for the full mesh. Each phase walks its set
// in ascending index order, which reproduces the arbitration ordering of a
// full scan exactly (bit-identical results).
func (n *Network) Step() {
	now := n.now
	// 1. Deliver the flits that crossed a link last cycle. List order is the
	// order a scan of routers and their output ports would deliver in, so
	// LinkTraverse flight events keep their order.
	for i := range n.arrivals {
		a := &n.arrivals[i]
		a.f.enteredRouter = now
		if n.flight != nil && a.f.IsHead {
			port := int32(n.slotPort[a.slot])
			n.flightRecord(now, n.pkts[a.f.pkt], flight.LinkTraverse, int(a.to), port, a.slot-port*int32(n.nvc))
		}
		n.Routers[a.to].accept(int(a.slot), a.f)
	}
	n.arrivals = n.arrivals[:0]
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
	// passes, not one per router: a cycle's VCAlloc flight events all precede
	// its SAGrant events.
	for w, m := range n.vaSet {
		for ; m != 0; m &= m - 1 {
			n.Routers[w<<6+bits.TrailingZeros64(m)].vcAllocate(now)
		}
	}
	moved := 0
	for w, m := range n.saSet {
		for ; m != 0; m &= m - 1 {
			moved += n.Routers[w<<6+bits.TrailingZeros64(m)].switchAllocate(now)
		}
	}
	// The credits phase 4 returned become visible now, for the next cycle
	// (see Network.credits).
	for _, ix := range n.credits {
		n.creditSlab[ix]++
	}
	n.credits = n.credits[:0]
	// Close the cycle: the progress watchdog, the samplers and the clock.
	if moved > 0 {
		n.lastProgress = now
	}
	for i := range n.onCycle {
		if h := &n.onCycle[i]; now%h.every == 0 {
			h.fn(now)
		}
	}
	n.Stats.cycles++
	n.now++
}

// Quiescent reports whether no packet or flit remains anywhere in the
// network (all injected traffic delivered and consumed). O(1): the inflight
// counter tracks every packet from TryInject to PopDeliveredClass, and no
// flit can outlive its packet's stay in the network.
func (n *Network) Quiescent() bool { return n.inflight == 0 }

// quiescentScan is the full-network reference implementation of Quiescent,
// kept for tests that cross-check the O(1) counter.
func (n *Network) quiescentScan() bool {
	for i := range n.nis {
		if n.nis[i].pending() {
			return false
		}
	}
	for _, r := range n.Routers {
		if r.inFlits > 0 {
			return false
		}
		for i := range r.vcs {
			if !r.vcs[i].empty() {
				return false
			}
		}
	}
	if len(n.arrivals) > 0 {
		return false
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

// StalledFor returns how many cycles have elapsed without any flit movement;
// tests use it as a deadlock watchdog.
func (n *Network) StalledFor() int64 { return n.now - n.lastProgress }

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

// DebugDump renders the live buffer state of every router: for each input
// port VC with flits, the head packet, its allocation, and the blocking
// condition. Diagnostic aid for deadlock analysis.
func (n *Network) DebugDump() string {
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
					add(fmt.Sprintf("router %v (node %d):\n", r.pos, r.node))
					hdr = true
				}
				p := n.pkts[vb.at(n.flits, 0).pkt]
				reason := "?"
				if vb.outPort == noAlloc {
					reason = "awaiting VC alloc"
				} else {
					op := &r.out[vb.outPort]
					if op.eject {
						if !n.ejectReady(r.node, ClassOf(p.Type)) {
							reason = "eject queue full"
						} else {
							reason = "eject ready"
						}
					} else if n.creditSlab[vb.credit] <= 0 {
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
