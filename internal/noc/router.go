package noc

import (
	"fmt"
	"math/bits"

	"equinox/internal/flight"
	"equinox/internal/geom"
)

// PortID indexes a router's input or output ports. On mesh routers ports
// 0..4 follow geom.Direction order (Local, East, West, South, North); extra
// injection/ejection ports (EIR, MultiPort) follow.
type PortID int

// Base port indices.
const (
	PortLocal PortID = PortID(geom.Local)
	PortEast  PortID = PortID(geom.East)
	PortWest  PortID = PortID(geom.West)
	PortSouth PortID = PortID(geom.South)
	PortNorth PortID = PortID(geom.North)
)

const noAlloc = -1

// vcBuf is one virtual-channel buffer of an input port: a fixed-capacity
// ring of depth flits at Network.flits[base:base+depth], so pushes never grow
// and pops never shift. Neither it nor the flit slab holds a pointer, so a
// network's buffer state is memory the collector never scans; the ring
// methods take the slab, Network.flits, as an argument.
type vcBuf struct {
	base  int32 // Network.flits index of the ring's first slot
	depth int32 // ring capacity, Config.VCDepthFlits
	head  int32 // ring offset of the oldest flit
	n     int32 // flits buffered

	// Allocation state for the packet at the head of the buffer. credit and
	// class are valid while outPort is set.
	outPort int32 // allocated output port, noAlloc if none
	outVC   int32 // allocated downstream VC, noAlloc if none
	credit  int32 // Network.creditSlab index of (outPort, outVC); noAlloc when ejecting
	class   int32 // Class of the allocated packet

	// headEntered caches the head flit's enteredRouter. With credit and
	// class it lets the switch allocator's input stage decide from the vcBuf
	// and one credit counter, without touching the flit, its packet or the
	// output port.
	headEntered int64
}

func (b *vcBuf) free() int   { return int(b.depth - b.n) }
func (b *vcBuf) empty() bool { return b.n == 0 }

// at returns the i-th buffered flit, oldest first.
func (b *vcBuf) at(flits []Flit, i int) *Flit {
	i += int(b.head)
	if i >= int(b.depth) {
		i -= int(b.depth)
	}
	return &flits[int(b.base)+i]
}

// push appends a flit; the caller has checked free() > 0.
func (b *vcBuf) push(flits []Flit, f Flit) {
	i := b.head + b.n
	if i >= b.depth {
		i -= b.depth
	}
	flits[b.base+i] = f
	if b.n == 0 {
		b.headEntered = f.enteredRouter
	}
	b.n++
}

// pop removes and returns the head flit and refreshes the head cache.
func (b *vcBuf) pop(flits []Flit) Flit {
	f := flits[b.base+b.head]
	if b.head++; b.head == b.depth {
		b.head = 0
	}
	b.n--
	if b.n > 0 {
		b.headEntered = flits[b.base+b.head].enteredRouter
	}
	return f
}

// inputPort is one input port: the upstream output port that receives its
// credits, and the switch-allocation pointer. Its VCs are a window of the
// router's (Router.portVCs).
type inputPort struct {
	// upCredit indexes the upstream router output port's VC-0 credit counter
	// in Network.creditSlab; noAlloc for NI-fed ports, whose NIs inspect
	// buffer space directly and take no credits.
	upCredit int
	rrVC     int // round-robin pointer for switch allocation
}

// outputPort is one output port: a link to a downstream router input port,
// or an ejection port delivering to the local node.
type outputPort struct {
	// to is the downstream router's ID and toSlot the slot of (its input
	// port, VC 0) there; to is noAlloc for ejection ports and for boundary
	// ports without a neighbour. Every link has a latency of one cycle: a
	// flit granted this cycle is in the downstream buffer for the next one
	// (see arrival).
	to, toSlot int32

	// creditBase indexes the port's VC-0 entry in the per-VC downstream
	// bookkeeping (links only): Network.creditSlab, the free downstream
	// buffer slots, and Network.owners, the input slot owning each
	// downstream VC or noAlloc.
	creditBase int

	eject bool
	rrIn  int // round-robin pointer for output arbitration

	// Output-arbitration scratch, valid within one switchAllocate call:
	// the winning nomination and its round-robin distance. grant is noAlloc
	// between calls.
	grant, score int
}

// arrival is one flit crossing a link: switch traversal appends it to the
// stepper's arrival list and phase 1 of the next cycle moves it into slot of
// router to.
type arrival struct {
	to   int32 // downstream router ID
	slot int32 // input slot there: the link's input port, the flit's VC
	f    Flit
}

// linkSource names the link an arrival is crossing by its near end. The
// arrival itself carries the far end: it enters input port d of router to, so
// it left the neighbour on that side through the opposite output port.
func (n *Network) linkSource(a *arrival) (router, port int) {
	d := geom.Direction(n.slotPort[a.slot])
	return n.Routers[a.to].pos.Add(d.Delta()).ID(n.Cfg.Width), int(d.Opposite())
}

// Router is one input-buffered VC router.
type Router struct {
	// Occupancy masks over input slots (slot = port*VCsPerPort + vc). Every
	// non-empty input VC has exactly one of the two bits set:
	//
	//   needVA — non-empty, head packet has no output allocated
	//   ready  — non-empty, output allocated (a switch-allocation candidate)
	//
	// They change in three places only: accept (empty → non-empty), VC
	// allocation success (needVA → ready), and the switch-traversal pop (the
	// tail clears the allocation, or the buffer drains).
	needVA, ready uint64

	// The stepper's per-phase router sets (Network.vaSet, saSet) hold this
	// router's bit — bit of *vaWord iff needVA != 0, of *saWord iff
	// ready != 0 — and are updated at the same three places.
	vaWord, saWord *uint64
	bit            uint64

	inFlits int // flits buffered in this router's input VCs

	vcs []vcBuf // every input VC, indexed by slot
	in  []inputPort
	out []outputPort

	id   int
	pos  geom.Point
	net  *Network
	node int // node (tile) ID this router serves; -1 for pure transit routers

	// dirOut maps geometric directions to output port IDs (noAlloc if the
	// router has no neighbour in that direction).
	dirOut [geom.NumDirections]int

	// Stats: cumulative flit-cycles spent in this router and flits passed,
	// for the Figure 4 heat maps.
	occupancyCycles int64
	flitsThrough    int64
}

// allocScratch is the allocators' working memory, valid within one phase
// call on one router; every router of a network shares Network.scratch.
type allocScratch struct {
	cands []routeCand
	vcOrd []int
	dirs  []geom.Direction
	reqs  []saReq
}

// fit grows the scratch to serve a router with the given port counts.
func (sc *allocScratch) fit(nin, nout, nvc int) {
	if cap(sc.reqs) < nin {
		sc.reqs = make([]saReq, 0, nin)
	}
	if cap(sc.cands) < nout*nvc {
		sc.cands = make([]routeCand, 0, nout*nvc)
	}
	if cap(sc.vcOrd) < nvc {
		sc.vcOrd = make([]int, 0, nvc)
	}
	if cap(sc.dirs) < 2 {
		sc.dirs = make([]geom.Direction, 0, 2)
	}
}

// finalize seals the router's port set once New has attached every
// MultiPort, EIR and spoke port: it checks the ports filled exactly the slab
// windows Config.portCounts planned (so every slot has its mask bit) and
// sizes the network's allocator scratch to fit the router.
func (r *Router) finalize() {
	if len(r.in) != cap(r.in) || len(r.in)*r.net.nvc != len(r.vcs) {
		panic(fmt.Sprintf("noc: router %d has %d input ports, planned %d", r.id, len(r.in), cap(r.in)))
	}
	r.net.scratch.fit(len(r.in), len(r.out), r.net.nvc)
}

// accept pushes a flit into input slot (port*VCsPerPort + vc), maintaining
// the occupancy masks, the per-phase router sets and the flit counter. All
// flit arrivals (links and NIs) go through here; the caller has set
// f.enteredRouter and checked the buffer has room.
func (r *Router) accept(slot int, f Flit) {
	vb := &r.vcs[slot]
	if vb.n == 0 {
		// Empty → non-empty: a buffer that drained mid-packet keeps its
		// allocation and goes straight back to switch allocation.
		if vb.outPort == noAlloc {
			r.needVA |= 1 << uint(slot)
			*r.vaWord |= r.bit
		} else {
			r.ready |= 1 << uint(slot)
			*r.saWord |= r.bit
		}
	}
	vb.push(r.net.flits, f)
	r.inFlits++
}

// Pos returns the router's tile coordinate.
func (r *Router) Pos() geom.Point { return r.pos }

// portVCs returns input port pi's VC buffers, a window of r.vcs.
func (r *Router) portVCs(pi int) []vcBuf {
	nvc := r.net.nvc
	return r.vcs[pi*nvc : (pi+1)*nvc]
}

// portCredits returns the output port's per-VC downstream credit counters,
// a window of n.creditSlab.
func (n *Network) portCredits(op *outputPort) []int32 {
	return n.creditSlab[op.creditBase : op.creditBase+n.nvc]
}

// vcOrderByCredit lists an output port's VCs most-free first, given its
// credits, for adaptive VC selection on single-class networks. The returned
// slice is scratch, valid until the next call.
func vcOrderByCredit(credits []int32, sc *allocScratch) []int {
	vcs := sc.vcOrd[:0]
	for i := range credits {
		vcs = append(vcs, i)
	}
	for i := 1; i < len(vcs); i++ {
		for j := i; j > 0 && credits[vcs[j]] > credits[vcs[j-1]]; j-- {
			vcs[j], vcs[j-1] = vcs[j-1], vcs[j]
		}
	}
	return vcs
}

// classVCs returns, in preference order, the downstream VCs a packet of
// class c may claim under the network's VC policy, for a non-escape
// allocation on output port op. The lists are precomputed at construction
// (initClassVCs) and must not be mutated by callers.
func (n *Network) classVCs(c Class) []int { return n.classVCList[c] }

// initClassVCs precomputes the per-class VC preference lists.
func (n *Network) initClassVCs() {
	switch n.Cfg.VCPolicy {
	case VCByClass:
		for c := Class(0); c < NumClasses; c++ {
			n.classVCList[c] = []int{int(c)}
		}
	case VCMonopolize:
		// Monopolization: replies prefer their own VC but may borrow the
		// request VC when free. Requests never borrow reply VCs so reply
		// progress cannot depend on request progress.
		n.classVCList[Request] = []int{int(Request)}
		n.classVCList[Reply] = []int{int(Reply), int(Request)}
	default: // VCPrivate
		all := make([]int, n.Cfg.VCsPerPort)
		for i := range all {
			all[i] = i
		}
		for c := Class(0); c < NumClasses; c++ {
			n.classVCList[c] = all
		}
	}
}

// routeCand is one candidate (output port, downstream VC) pair for the head
// packet of an input VC.
type routeCand struct {
	port int
	vc   int
}

// routeCandidates lists the head packet's candidates in preference order
// into the scratch buffer; the returned slice is valid until the next call
// with the same scratch.
func (r *Router) routeCandidates(p *Packet, sc *allocScratch) []routeCand {
	n := r.net
	cands := sc.cands[:0]
	dst := geom.FromID(p.Dst, n.Cfg.Width)
	if dst == r.pos {
		// Ejection. MultiPort CB routers may have several ejection ports.
		for pi := range r.out {
			if r.out[pi].eject {
				cands = append(cands, routeCand{port: pi, vc: 0})
			}
		}
		return cands
	}

	cls := ClassOf(p.Type)
	dirs := geom.AppendDirTowards(sc.dirs[:0], r.pos, dst)
	xyDir := dirs[0] // X first: DirTowards emits the X direction first

	switch n.Cfg.Routing {
	case RoutingXY:
		op := r.dirOut[xyDir]
		for _, vc := range n.classVCs(cls) {
			cands = append(cands, routeCand{port: op, vc: vc})
		}
	case RoutingMinimalAdaptive:
		// West-first minimal adaptive (Glass & Ni's turn model): all
		// westward hops are taken first and deterministically; eastbound
		// packets choose adaptively among their productive directions by
		// downstream credit. The turn restriction makes the channel
		// dependence graph acyclic with ordinary wormhole flow control, so
		// every VC is usable at full throughput with no escape channel.
		allowed := dirs
		if dst.X < r.pos.X {
			allowed = westOnly
		}
		type scored struct {
			port, credits int
		}
		var adaptive [geom.NumDirections]scored
		na := 0
		for _, d := range allowed {
			op := r.dirOut[d]
			if op == noAlloc {
				continue
			}
			total := 0
			for _, c := range n.portCredits(&r.out[op]) {
				total += int(c)
			}
			adaptive[na] = scored{op, total}
			na++
		}
		// Stable selection: higher credit first, then port order.
		for i := 1; i < na; i++ {
			for j := i; j > 0 && adaptive[j].credits > adaptive[j-1].credits; j-- {
				adaptive[j], adaptive[j-1] = adaptive[j-1], adaptive[j]
			}
		}
		for _, s := range adaptive[:na] {
			for _, vc := range vcOrderByCredit(n.portCredits(&r.out[s.port]), sc) {
				cands = append(cands, routeCand{port: s.port, vc: vc})
			}
		}
	}
	return cands
}

// westOnly is the fixed direction list for the west-first turn restriction.
var westOnly = []geom.Direction{geom.West}

// vcAllocate performs VC allocation for head flits without an output,
// visiting only the set bits of needVA.
//
// Arbitration order is the scan order it replaces: input ports round-robin
// from an offset, VCs ascending within a port. Slots are port-major, so that
// is ascending slot order rotated to start at slot offset*VCsPerPort — the
// mask is split there and each half walked low bit first. The offset is
// derived from the cycle counter, not stored per router, so idle routers stay
// out of the stepper's sets.
func (r *Router) vcAllocate(now int64) {
	m := r.needVA
	n := r.net
	sc := &n.scratch
	below := uint64(1)<<uint(int(now%int64(len(r.in)))*n.nvc) - 1
	for _, half := range [2]uint64{m &^ below, m & below} {
		for ; half != 0; half &= half - 1 {
			slot := bits.TrailingZeros64(half)
			vb := &r.vcs[slot]
			head := vb.at(n.flits, 0)
			if !head.IsHead {
				continue // mid-packet without allocation cannot happen, but be safe
			}
			p := n.pkts[head.pkt]
			cls := ClassOf(p.Type)
			for _, c := range r.routeCandidates(p, sc) {
				if c.port == noAlloc {
					continue
				}
				op := &r.out[c.port]
				if op.eject {
					vb.outPort, vb.outVC, vb.credit = int32(c.port), 0, noAlloc
					break
				}
				credit := op.creditBase + c.vc
				if n.owners[credit] != noAlloc {
					continue
				}
				// VC monopolization safety: borrowing the other class's VC
				// is only allowed when its downstream buffer is completely
				// empty. A borrowed reply must never queue behind a blocked
				// request (or vice versa), or the M2F2M protocol loop —
				// requests waiting on the CB, the CB waiting on reply
				// injection, replies waiting behind requests — deadlocks.
				if n.Cfg.VCPolicy == VCMonopolize &&
					c.vc != int(cls) &&
					int(n.creditSlab[credit]) < n.Cfg.VCDepthFlits {
					continue
				}
				// Deadlock freedom: both routing modes (XY and west-first
				// adaptive) have acyclic channel dependence graphs, so
				// owner-free acquisition with ordinary wormhole flow control
				// suffices.
				n.owners[credit] = int32(slot)
				vb.outPort, vb.outVC, vb.credit = int32(c.port), int32(c.vc), int32(credit)
				break
			}
			if vb.outPort == noAlloc {
				continue
			}
			vb.class = int32(cls)
			bit := uint64(1) << uint(slot)
			r.needVA &^= bit
			r.ready |= bit
			if n.flight != nil {
				n.flightRecord(now, p, flight.VCAlloc, r.id, vb.outPort, vb.outVC)
			}
		}
	}
	if r.needVA == 0 {
		*r.vaWord &^= r.bit
	}
	if r.ready != 0 {
		*r.saWord |= r.bit
	}
}

// slot packs an (input port, VC) pair into the router-local index of the VC
// buffer: the bit position in the occupancy masks, the index into Router.vcs
// and the owner token held by a downstream VC. Config.Validate bounds it
// below 64.
func (n *Network) slot(inPort, vc int) int { return inPort*n.nvc + vc }

// saReq is one input port's switch-allocation nomination.
type saReq struct {
	vb     *vcBuf
	slot   int
	ipIx   int
	credit int // Network.creditSlab index to return a credit to, or noAlloc
}

// sendable reports whether the head flit of a ready VC may traverse this
// cycle: it has spent its cycle in the router pipeline, and the downstream
// VC (or the node's ejection queue) has room for it.
func (r *Router) sendable(vb *vcBuf, now int64) bool {
	if vb.headEntered >= now {
		return false
	}
	if vb.credit == noAlloc {
		return r.net.ejectReady(r.node, Class(vb.class))
	}
	return r.net.creditSlab[vb.credit] > 0
}

// creditFor returns the Network.creditSlab index a flit leaving the port's
// VC vc returns a credit to; noAlloc on NI-fed ports.
func (ip *inputPort) creditFor(vc int) int {
	if ip.upCredit == noAlloc {
		return noAlloc
	}
	return ip.upCredit + vc
}

// switchAllocate runs separable input-first switch allocation over the
// ready mask and traverses the granted flits: a flit leaving on a link is
// appended to the arrival list, which keeps (router, output port) order
// because routers are visited ascending and grants traverse ascending.
// Returns the number of flits moved. The steady state allocates nothing.
func (r *Router) switchAllocate(now int64) int {
	n := r.net
	nvc := n.nvc
	vcMask := uint64(1)<<uint(nvc) - 1
	nin := len(r.in)

	// Input stage: each input port with a ready VC nominates one, round-robin
	// from its rrVC pointer. Ports come up in ascending order because slots
	// are port-major.
	reqs := n.scratch.reqs[:0]
	var granted uint64 // output ports holding a grant
	m := r.ready
	if m&(m-1) == 0 {
		// A lone ready VC (the stepper only calls with ready non-zero) — the
		// usual case, arbitration is rarely contested — is its port's nominee
		// and its output's winner outright, so it skips the rotate and the
		// scoring. The round-robin pointers move exactly as they would below.
		slot := bits.TrailingZeros64(m)
		vb := &r.vcs[slot]
		if !r.sendable(vb, now) {
			return 0
		}
		ipIx := int(n.slotPort[slot])
		ip := &r.in[ipIx]
		vi := slot - ipIx*nvc
		granted = 1 << uint(vb.outPort)
		r.out[vb.outPort].grant = 0
		reqs = append(reqs, saReq{vb: vb, slot: slot, ipIx: ipIx, credit: ip.creditFor(vi)})
		if vi++; vi == nvc {
			vi = 0
		}
		ip.rrVC = vi
		m = 0
	}
	for m != 0 {
		ipIx := int(n.slotPort[bits.TrailingZeros64(m)])
		base := ipIx * nvc
		pm := m >> uint(base) & vcMask
		m &^= vcMask << uint(base)
		ip := &r.in[ipIx]
		// Rotate the port's ready bits so bit k is VC (rrVC+k) mod nvc.
		rr := ip.rrVC
		for rot := (pm>>uint(rr) | pm<<uint(nvc-rr)) & vcMask; rot != 0; rot &= rot - 1 {
			vi := rr + bits.TrailingZeros64(rot)
			if vi >= nvc {
				vi -= nvc
			}
			vb := &r.vcs[base+vi]
			if !r.sendable(vb, now) {
				continue
			}
			op := &r.out[vb.outPort]
			// Output stage, folded into the same walk: each output port
			// grants the requester nearest its round-robin pointer. The
			// pointers only move in the traversal below, so bucketing
			// nominations as they appear picks the same winner as scanning
			// all of them per port. Input-first allocation nominates at most
			// one VC per input port, so a per-output grant cannot
			// double-grant an input.
			score := ipIx - op.rrIn
			if score < 0 {
				score += nin
			}
			if op.grant == noAlloc {
				granted |= 1 << uint(vb.outPort)
				op.grant, op.score = len(reqs), score
			} else if score < op.score {
				op.grant, op.score = len(reqs), score
			}
			reqs = append(reqs, saReq{vb: vb, slot: base + vi, ipIx: ipIx, credit: ip.creditFor(vi)})
			if vi++; vi == nvc {
				vi = 0
			}
			ip.rrVC = vi
			break
		}
	}

	// Switch traversal (ascending output port, for determinism).
	moved, ejected := 0, 0
	for ; granted != 0; granted &= granted - 1 {
		pi := bits.TrailingZeros64(granted)
		op := &r.out[pi]
		q := &reqs[op.grant]
		op.grant = noAlloc
		if op.rrIn = q.ipIx + 1; op.rrIn == nin {
			op.rrIn = 0
		}
		vb := q.vb
		outVC := vb.outVC
		r.occupancyCycles += now - vb.headEntered
		f := vb.pop(n.flits)
		if n.flight != nil && f.IsHead {
			n.flightRecord(now, n.pkts[f.pkt], flight.SAGrant, r.id, int32(pi), outVC)
		}
		moved++
		// Return a credit upstream, deferred to the end of the phase (see
		// Network.credits). NI-fed ports take no credits.
		if q.credit != noAlloc {
			n.credits = append(n.credits, int32(q.credit))
		}
		tail := f.IsTail
		if op.eject {
			ejected++
			if tail {
				n.ejectPacket(f.pkt, now)
			}
		} else {
			n.creditSlab[vb.credit]--
			n.arrivals = append(n.arrivals, arrival{to: op.to, slot: op.toSlot + outVC, f: f})
		}
		// Mask maintenance: the tail releases the allocation (the next
		// packet's head, if already buffered, now needs VA); a buffer that
		// drains mid-packet keeps its allocation but leaves the ready set
		// until accept refills it.
		bit := uint64(1) << uint(q.slot)
		if tail {
			if !op.eject {
				n.owners[vb.credit] = noAlloc
			}
			vb.outPort, vb.outVC = noAlloc, noAlloc
			r.ready &^= bit
			if vb.n > 0 {
				r.needVA |= bit
			}
		} else if vb.n == 0 {
			r.ready &^= bit
		}
	}
	if r.ready == 0 {
		*r.saWord &^= r.bit
	}
	if r.needVA != 0 {
		*r.vaWord |= r.bit
	}
	r.inFlits -= moved
	r.flitsThrough += int64(moved)
	n.Stats.FlitHops += int64(moved)
	n.Stats.EjectFlits += int64(ejected)
	n.Stats.LinkFlits += int64(moved - ejected)
	return moved
}

// FlitsThrough returns the number of flits that traversed this router.
func (r *Router) FlitsThrough() int64 { return r.flitsThrough }

// NumInPorts returns the router's input port count (including injection-only
// extra ports), which sizes its crossbar and allocators.
func (r *Router) NumInPorts() int { return len(r.in) }

// NumOutPorts returns the router's output port count.
func (r *Router) NumOutPorts() int { return len(r.out) }

// AvgTraversalCycles returns the mean number of cycles a flit spent inside
// this router (Figure 4's per-router metric). Zero if no flits passed.
func (r *Router) AvgTraversalCycles() float64 {
	if r.flitsThrough == 0 {
		return 0
	}
	return float64(r.occupancyCycles) / float64(r.flitsThrough)
}
