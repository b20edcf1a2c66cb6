package noc

import (
	"fmt"
	"math/bits"

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

	// Allocation state for the packet at the head of the buffer. down and
	// class are valid while outPort is set.
	outPort int32 // allocated output port, noAlloc if none
	outVC   int32 // allocated downstream VC, noAlloc if none
	down    int32 // Network.vcs index of the allocated downstream VC; noAlloc when ejecting
	class   int32 // Class of the allocated packet

	// owner is the input slot of the upstream router whose packet holds
	// this VC (link-fed VCs only), noAlloc while the VC is free.
	owner int32

	// headEntered caches the head flit's enteredRouter. With down and class
	// it lets the switch allocator's input stage decide from the vcBuf and
	// the downstream vcBuf's credit, without touching the flit, its packet
	// or the output port.
	headEntered int64
	// popped is the last cycle a flit left this VC, -1 before the first: the
	// slot it freed is not yet usable upstream (Network.credit).
	popped int64
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

// pop removes and returns the head flit in cycle now, refreshes the head
// cache and stamps the cycle.
func (b *vcBuf) pop(flits []Flit, now int64) Flit {
	f := flits[b.base+b.head]
	b.popped = now
	if b.head++; b.head == b.depth {
		b.head = 0
	}
	b.n--
	if b.n > 0 {
		b.headEntered = flits[b.base+b.head].enteredRouter
	}
	return f
}

// inputPort is one input port's switch-allocation state. Its VCs are a
// window of the router's (Router.portVCs).
type inputPort struct {
	rrVC int // round-robin pointer for switch allocation
}

// outputPort is one output port: a link to a downstream router input port,
// or an ejection port delivering to the local node.
type outputPort struct {
	// to is the downstream router's ID and toSlot the slot of (its input
	// port, VC 0) there; to is noAlloc for ejection ports and for boundary
	// ports without a neighbour. Every link has a latency of one cycle:
	// switch traversal deposits a flit granted in cycle t straight into the
	// downstream buffer, stamped as entering it in t+1 (see traverse). down
	// is the Network.vcs index of that (input port, VC 0), whose VCs hold
	// the link's credits and owners; noAlloc where to is.
	to, toSlot, down int32

	// lastSent is the last cycle a flit left through this port onto its
	// link (links only; -1 before the first). A flit deposited in cycle t
	// is on the link until t+1 begins, so lastSent == now at the end of a
	// cycle means the link holds one flit, which the downstream router's
	// occupancy does not count yet (Network.Occupancy).
	lastSent int64

	eject bool
	rrIn  int // round-robin pointer for output arbitration

	// Output-arbitration scratch, valid within one switchAllocate call:
	// the winning nomination's input slot and its round-robin distance.
	// grant is noAlloc between calls.
	grant, score int
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

	vcs []vcBuf // every input VC, indexed by slot: a window of Network.vcs
	in  []inputPort
	out []outputPort

	id  int // also the ID of the node (tile) it serves
	pos geom.Point
	net *Network

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
}

// fit grows the scratch to serve a router with the given port counts.
func (sc *allocScratch) fit(nout, nvc int) {
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
	r.net.scratch.fit(len(r.out), r.net.nvc)
}

// accept pushes a flit into input slot (port*VCsPerPort + vc), maintaining
// the occupancy masks and the per-phase router sets. All flit arrivals (link
// deposits and NIs) go through here; the caller has set f.enteredRouter and
// checked the buffer has room.
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
}

// portVCs returns input port pi's VC buffers, a window of r.vcs.
func (r *Router) portVCs(pi int) []vcBuf {
	nvc := r.net.nvc
	return r.vcs[pi*nvc : (pi+1)*nvc]
}

// vcOrderByCredit lists link output port op's VCs most credits first in
// cycle now, for adaptive VC selection on single-class networks. The
// returned slice is scratch, valid until the next call.
func (n *Network) vcOrderByCredit(op *outputPort, now int64, sc *allocScratch) []int {
	vcs := sc.vcOrd[:0]
	for vc := 0; vc < n.nvc; vc++ {
		vcs = append(vcs, vc)
	}
	for i := 1; i < len(vcs); i++ {
		for j := i; j > 0 && n.credit(op.down+int32(vcs[j]), now) > n.credit(op.down+int32(vcs[j-1]), now); j-- {
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

// routeCandidates lists the head packet's candidates in cycle now in
// preference order into the scratch buffer; the returned slice is valid
// until the next call with the same scratch.
func (r *Router) routeCandidates(p *Packet, now int64, sc *allocScratch) []routeCand {
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
			for vc := int32(0); vc < int32(n.nvc); vc++ {
				total += int(n.credit(r.out[op].down+vc, now))
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
			for _, vc := range n.vcOrderByCredit(&r.out[s.port], now, sc) {
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
			for _, c := range r.routeCandidates(p, now, sc) {
				if c.port == noAlloc {
					continue
				}
				op := &r.out[c.port]
				if op.eject {
					vb.outPort, vb.outVC, vb.down = int32(c.port), 0, noAlloc
					break
				}
				down := op.down + int32(c.vc)
				d := &n.vcs[down]
				if d.owner != noAlloc {
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
					n.credit(down, now) < d.depth {
					continue
				}
				// Deadlock freedom: both routing modes (XY and west-first
				// adaptive) have acyclic channel dependence graphs, so
				// owner-free acquisition with ordinary wormhole flow control
				// suffices.
				d.owner = int32(slot)
				vb.outPort, vb.outVC, vb.down = int32(c.port), int32(c.vc), down
				break
			}
			if vb.outPort == noAlloc {
				continue
			}
			vb.class = int32(cls)
			bit := uint64(1) << uint(slot)
			r.needVA &^= bit
			r.ready |= bit
			if len(n.obs) != 0 {
				n.emit(now, p, VCAlloc, r.id, vb.outPort, vb.outVC)
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
// and the owner token held by a downstream VC (vcBuf.owner). Config.Validate
// bounds it below 64.
func (n *Network) slot(inPort, vc int) int { return inPort*n.nvc + vc }

// sendable reports whether the head flit of a ready VC may traverse this
// cycle: it has spent its cycle in the router pipeline, and the downstream
// VC (or the node's ejection queue) has room for it.
func (r *Router) sendable(vb *vcBuf, now int64) bool {
	if vb.headEntered >= now {
		return false
	}
	if vb.down == noAlloc {
		return r.net.ejectReady(r.id, Class(vb.class))
	}
	return r.net.credit(vb.down, now) > 0
}

// switchAllocate runs separable input-first switch allocation over the
// ready mask and traverses the granted flits, in ascending output port
// order; routers are visited ascending, so flits leave the mesh's routers in
// (router, output port) order. The steady state allocates nothing.
func (r *Router) switchAllocate(now int64) {
	n := r.net
	nvc := n.nvc
	m := r.ready
	if m&(m-1) == 0 {
		// A lone ready VC (the stepper only calls with ready non-zero) — the
		// usual case, arbitration is rarely contested — is its port's nominee
		// and its output's winner outright, so it skips the rotate and the
		// scoring. The round-robin pointers move exactly as they would below.
		slot := bits.TrailingZeros64(m)
		if !r.sendable(&r.vcs[slot], now) {
			return
		}
		ipIx := int(n.slotPort[slot])
		ip := &r.in[ipIx]
		if ip.rrVC = slot - ipIx*nvc + 1; ip.rrVC == nvc {
			ip.rrVC = 0
		}
		r.traverse(slot, now)
		return
	}
	vcMask := uint64(1)<<uint(nvc) - 1
	nin := len(r.in)

	// Input stage: each input port with a ready VC nominates one, round-robin
	// from its rrVC pointer. Ports come up in ascending order because slots
	// are port-major.
	var granted uint64 // output ports holding a grant
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
			// pointers only move in traverse, so bucketing nominations as
			// they appear picks the same winner as scanning all of them per
			// port. Input-first allocation nominates at most one VC per input
			// port, so a per-output grant cannot double-grant an input.
			score := ipIx - op.rrIn
			if score < 0 {
				score += nin
			}
			if op.grant == noAlloc {
				granted |= 1 << uint(vb.outPort)
				op.grant, op.score = base+vi, score
			} else if score < op.score {
				op.grant, op.score = base+vi, score
			}
			if vi++; vi == nvc {
				vi = 0
			}
			ip.rrVC = vi
			break
		}
	}

	// Switch traversal (ascending output port, for determinism).
	for ; granted != 0; granted &= granted - 1 {
		op := &r.out[bits.TrailingZeros64(granted)]
		slot := op.grant
		op.grant = noAlloc
		r.traverse(slot, now)
	}
}

// traverse moves the head flit of the granted VC in slot through the
// crossbar and out of its allocated port: into the node's ejection queue, or
// across the link straight into the downstream input buffer. A deposited flit
// is stamped as entering that buffer next cycle — the link's one-cycle
// latency — so it cannot move again this cycle, whichever order routers are
// visited in. The pop's popped stamp is the credit returned upstream
// (Network.credit). traverse also advances the output's round-robin pointer
// past the winning input port, and keeps the masks, router sets and
// counters.
func (r *Router) traverse(slot int, now int64) {
	n := r.net
	ipIx := int(n.slotPort[slot])
	vb := &r.vcs[slot]
	pi, outVC := vb.outPort, vb.outVC
	op := &r.out[pi]
	if op.rrIn = ipIx + 1; op.rrIn == len(r.in) {
		op.rrIn = 0
	}
	r.occupancyCycles += now - vb.headEntered
	f := vb.pop(n.flits, now)
	if len(n.obs) != 0 && f.IsHead {
		n.emit(now, n.pkts[f.pkt], SAGrant, r.id, pi, outVC)
	}
	if op.eject {
		n.Stats.EjectFlits++
		if f.IsTail {
			n.ejectPacket(f.pkt, now)
		}
	} else {
		n.Stats.LinkFlits++
		op.lastSent = now
		f.enteredRouter = now + 1
		to := op.toSlot + outVC
		if len(n.obs) != 0 && f.IsHead {
			port := int32(n.slotPort[to])
			n.emit(now, n.pkts[f.pkt], LinkTraverse, int(op.to), port, to-port*int32(n.nvc))
		}
		n.Routers[op.to].accept(int(to), f)
	}
	// Mask maintenance: the tail releases the allocation (the next packet's
	// head, if already buffered, now needs VA); a buffer that drains
	// mid-packet keeps its allocation but leaves the ready set until accept
	// refills it.
	bit := uint64(1) << uint(slot)
	if f.IsTail {
		if !op.eject {
			n.vcs[vb.down].owner = noAlloc
		}
		vb.outPort, vb.outVC = noAlloc, noAlloc
		r.ready &^= bit
		if vb.n > 0 {
			r.needVA |= bit
			*r.vaWord |= r.bit
		}
	} else if vb.n == 0 {
		r.ready &^= bit
	}
	if r.ready == 0 {
		*r.saWord &^= r.bit
	}
	r.flitsThrough++
	n.Stats.FlitHops++
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
