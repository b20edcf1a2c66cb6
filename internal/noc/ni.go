package noc

import "equinox/internal/geom"

// addInjectionPort attaches the router's next planned injection-only input
// port (its buffers already sit in the slabs) and returns its index. Used for
// EIR input ports, MultiPort CB injection and concentration spokes; going
// past the window Config.portCounts planned is a construction bug and panics.
func addInjectionPort(r *Router) int {
	r.in = r.in[:len(r.in)+1]
	return len(r.in) - 1
}

// ni is the network interface of §4.4, Figure 8, written once: a core-side
// queue, a buffer selector, and single-packet injection buffers each wired to
// one router input port. Every cycle the selector may move one queued packet
// into a free buffer, and every buffer streams one flit into its router. The
// schemes differ only in how many buffers there are and how the selector
// picks one:
//
//   - baseline (and each concentration spoke): one buffer on the home router;
//     a packet is dispatched only when an input VC can take it right now.
//   - MultiPort: k buffers on the CB router, filled round-robin, one always
//     left for the other class.
//   - EquiNox: the local buffer plus one per EIR, reached over the interposer,
//     chosen by the paper's Buffer Decision Policy.
//
// Request and reply packets wait in separate FIFOs (as in real NIs, where the
// two classes have dedicated buffers): on a shared physical network a blocked
// request must never trap a reply behind it, or the M2F2M protocol loop
// deadlocks. The MultiPort and EquiNox NIs only ever sit on single-class
// reply networks (all seven rows of sim/schemes.go), where per-class FIFOs
// and a single FIFO order packets identically; the per-class form is kept
// because it is the protocol-deadlock-safe one on any network.
type ni struct {
	net    *Network
	r      *Router // home router
	queues [NumClasses][]*Packet
	cap    int

	// bufs[0] feeds the home router's local or spoke port; MultiPort appends
	// one per extra injection port, EquiNox one per EIR in East..North order.
	bufs   []injBuffer
	choose selector
	rrCls  int // class the next dispatch tries first
	rr     int // selector state: MultiPort's next buffer, EquiNox's quadrant toggle
	stall  stallNote

	// EquiNox only: the EIR buffer per geom.Direction (nil when the CB has no
	// EIR that way) and the EIR's distance from the CB along it.
	dir       [geom.NumDirections]*injBuffer
	eirOffset [geom.NumDirections]int
}

// selector picks the injection buffer for the queue head p, plus the input VC
// when it commits to one at dispatch time (noAlloc leaves the choice to the
// buffer's first stream attempt). A nil buffer keeps p queued; why is then the
// stall reason to record, or 0 when no dispatch was attempted.
type selector func(ni *ni, p *Packet) (b *injBuffer, vc int, why int32)

// Injection stall reasons (the argument a of InjectStall events). The values
// start at 1 so a zero-valued stallNote can never match a real reason.
const (
	// StallBuffersBusy: every shortest-path injection buffer (and the local
	// fallback) is occupied; the packet waits in the NI queue.
	StallBuffersBusy int32 = iota + 1
	// StallNoVC: no input VC at the router's injection port can accept the
	// packet's class (all allowed VCs full or owned).
	StallNoVC
	// StallVCFull: a VC was claimed but its buffer has no free slot this
	// cycle (downstream backpressure reached the injection port).
	StallVCFull
)

// stallNote dedups InjectStall events: injection stalls persist for many
// cycles, and reporting each one would flood observers with duplicates. One
// event is emitted when a (packet, reason) episode starts; the episode ends
// when the owner makes progress and resets the note.
type stallNote struct {
	pkt int64
	why int32
}

// stall emits one InjectStall event per stall episode. Callers guard with
// len(n.obs) != 0.
func (n *Network) stall(note *stallNote, now int64, p *Packet, router int, why int32) {
	if note.pkt == p.ID && note.why == why {
		return
	}
	note.pkt, note.why = p.ID, why
	n.emit(now, p, InjectStall, router, why, 0)
}

// niSlab hands New's NIs their FIFOs and injection buffers as consecutive
// windows of two per-network slabs, rather than two allocations per NI.
type niSlab struct {
	queues []*Packet
	bufs   []injBuffer
}

// take carves the next NI's windows: nq FIFO slots and room for nb buffers.
func (s *niSlab) take(nq, nb int) ([]*Packet, []injBuffer) {
	q, b := s.queues[:nq:nq], s.bufs[:0:nb]
	s.queues, s.bufs = s.queues[nq:], s.bufs[nb:]
	return q, b
}

// newNI builds a baseline NI whose one buffer feeds the given input port of r
// (the local port, or a concentration spoke's), with room for nbufs buffers.
// NIs take no credits: they inspect the router's buffer space directly.
func newNI(n *Network, sl *niSlab, r *Router, port, nbufs int) ni {
	capacity := n.Cfg.InjQueuePackets
	ni := ni{net: n, r: r, cap: capacity, choose: selectWhenVCFree}
	// The FIFOs are preallocated at capacity so enqueues never grow them.
	q, bufs := sl.take(int(NumClasses)*capacity, nbufs)
	for c := range ni.queues {
		ni.queues[c] = q[c*capacity : c*capacity : (c+1)*capacity]
	}
	ni.bufs = append(bufs, injBuffer{r: r, port: port, vc: noAlloc})
	return ni
}

// newMultiPortNI models the MultiPort scheme [2]: several buffers, each wired
// to its own injection port on the CB router, widening injection bandwidth
// without distributing it. ports is at least two.
func newMultiPortNI(n *Network, sl *niSlab, r *Router, ports int) ni {
	ni := newNI(n, sl, r, int(PortLocal), ports)
	ni.choose = selectRoundRobin
	for k := 1; k < ports; k++ {
		ni.bufs = append(ni.bufs, injBuffer{r: r, port: addInjectionPort(r), ix: int32(k), vc: noAlloc})
	}
	return ni
}

// newEquiNoxNI builds the modified CB network interface of EquiNox: the
// injection buffer is split into the local buffer and one per EIR, wired
// through the interposer to an extra input port of the EIR's router.
// Config.Validate has checked that every EIR is on one of the CB's axes, off
// its tile, and alone in its direction.
func newEquiNoxNI(n *Network, sl *niSlab, r *Router, eirs []geom.Point) ni {
	ni := newNI(n, sl, r, int(PortLocal), 1+len(eirs))
	ni.choose = selectEquiNox
	var at [geom.NumDirections]*Router
	for _, e := range eirs {
		at[geom.DirTowards(r.pos, e)[0]] = n.RouterAt(e)
	}
	for d := geom.East; d < geom.NumDirections; d++ {
		if er := at[d]; er != nil {
			ni.bufs = append(ni.bufs, injBuffer{r: er, port: addInjectionPort(er), ix: int32(d), vc: noAlloc, interposer: true})
			ni.dir[d] = &ni.bufs[len(ni.bufs)-1]
			ni.eirOffset[d] = geom.Manhattan(r.pos, er.pos)
		}
	}
	return ni
}

// enqueue accepts a packet into its class's FIFO if space remains.
func (ni *ni) enqueue(p *Packet, now int64) bool {
	c := ClassOf(p.Type)
	if len(ni.queues[c]) >= ni.cap {
		return false
	}
	p.CreatedAt = now
	ni.queues[c] = append(ni.queues[c], p)
	return true
}

// pending reports whether the NI still holds any packet or flits.
func (ni *ni) pending() bool {
	if len(ni.queues[Request]) > 0 || len(ni.queues[Reply]) > 0 {
		return true
	}
	for i := range ni.bufs {
		if ni.bufs[i].busy() {
			return true
		}
	}
	return false
}

// backlog adds the NI's held flits into per, indexed by the ID of the router
// the flits are waiting to enter: queued packets at the home router, each
// buffer's unsent remainder at the router it feeds (an EIR's, for EquiNox —
// that is where those flits physically wait, and the dispersal the probe
// measures). Called on sampling cycles; must not allocate.
func (ni *ni) backlog(per []int64) {
	var f int64
	for _, q := range ni.queues {
		for _, p := range q {
			f += int64(p.Flits)
		}
	}
	per[ni.r.id] += f
	for i := range ni.bufs {
		if b := &ni.bufs[i]; b.busy() {
			per[b.r.id] += int64(b.pkt.Flits - b.sent)
		}
	}
}

// step dispatches at most one queued packet — one dispatch per cycle is the
// single NI core of Figure 8 — and then streams every buffer: the split
// buffers are the whole point, up to len(bufs) flits leave the NI per cycle.
// Classes take turns going first, and a class the selector turns down never
// keeps the other from dispatching.
func (ni *ni) step(now int64) {
	n := ni.net
	var stalled *Packet // head of the first backlogged class, in this cycle's order
	var why int32
	for k := 0; k < int(NumClasses); k++ {
		c := (ni.rrCls + k) % int(NumClasses)
		if len(ni.queues[c]) == 0 {
			continue
		}
		p := ni.queues[c][0]
		b, vc, w := ni.choose(ni, p)
		if b == nil {
			if stalled == nil {
				stalled, why = p, w
			}
			continue
		}
		ni.queues[c] = popPacket(ni.queues[c])
		b.load(n, p, vc, now)
		ni.rrCls = (c + 1) % int(NumClasses)
		stalled = nil
		ni.stall = stallNote{}
		break
	}
	if stalled != nil && why != 0 && len(n.obs) != 0 {
		n.stall(&ni.stall, now, stalled, ni.r.id, why)
	}
	for i := range ni.bufs {
		ni.bufs[i].stream(n, now)
	}
}

// popPacket removes the queue head, compacting in place so the backing
// array is reused instead of walking forward allocation by allocation.
func popPacket(q []*Packet) []*Packet {
	copy(q, q[1:])
	return q[:len(q)-1]
}

// selectWhenVCFree is the baseline selector: the one buffer takes the head
// only when an input VC can accept its first flit this cycle, so a blocked
// class never holds the buffer against the other. While the buffer streams,
// no dispatch is attempted — which is why its stall note and the buffer's can
// be two notes and still record the episodes one shared note would.
func selectWhenVCFree(ni *ni, p *Packet) (*injBuffer, int, int32) {
	b := &ni.bufs[0]
	if b.busy() {
		return nil, noAlloc, 0
	}
	vc := injectVC(ni.net, b.r.portVCs(b.port), ClassOf(p.Type))
	if vc == noAlloc {
		return nil, noAlloc, StallNoVC
	}
	return b, vc, 0
}

// selectRoundRobin is MultiPort's selector: the next free buffer in
// round-robin order. One class may never occupy every buffer: a backpressured
// request stream hogging all of them would trap replies in the NI and close
// the M2F2M protocol loop.
func selectRoundRobin(ni *ni, p *Packet) (*injBuffer, int, int32) {
	c, held := ClassOf(p.Type), 0
	for i := range ni.bufs {
		if b := &ni.bufs[i]; b.busy() && ClassOf(b.pkt.Type) == c {
			held++
		}
	}
	if k := len(ni.bufs); held < k-1 { // else leave one buffer for the other class
		for j := 0; j < k; j++ {
			if b := &ni.bufs[(ni.rr+j)%k]; !b.busy() {
				ni.rr = (ni.rr + j + 1) % k
				return b, noAlloc, 0
			}
		}
	}
	return nil, noAlloc, StallBuffersBusy
}

// selectEquiNox implements the paper's Buffer Decision Policy ("Buffer
// Selection 1"): steer the packet to a free EIR buffer on a shortest path to
// its destination, to the local buffer when those are busy, and retry next
// cycle otherwise.
func selectEquiNox(ni *ni, p *Packet) (*injBuffer, int, int32) {
	dst := geom.FromID(p.Dst, ni.net.Cfg.Width)
	dx, dy := dst.X-ni.r.pos.X, dst.Y-ni.r.pos.Y
	var xb, yb *injBuffer
	if dx > 0 {
		xb = ni.shortestPathBuffer(geom.East, dx)
	} else if dx < 0 {
		xb = ni.shortestPathBuffer(geom.West, -dx)
	}
	if dy > 0 {
		yb = ni.shortestPathBuffer(geom.South, dy)
	} else if dy < 0 {
		yb = ni.shortestPathBuffer(geom.North, -dy)
	}
	switch {
	case xb != nil && yb != nil:
		// Quadrant destination with both shortest-path EIRs free: alternate.
		if ni.rr ^= 1; ni.rr == 1 {
			return yb, noAlloc, 0
		}
		return xb, noAlloc, 0
	case xb != nil:
		return xb, noAlloc, 0
	case yb != nil:
		return yb, noAlloc, 0
	case !ni.bufs[0].busy():
		return &ni.bufs[0], noAlloc, 0
	}
	return nil, noAlloc, StallBuffersBusy
}

// shortestPathBuffer returns the EIR buffer for direction d if it is free and
// that EIR lies on a shortest path to a destination delta tiles away along d
// (the EIR must not overshoot it).
func (ni *ni) shortestPathBuffer(d geom.Direction, delta int) *injBuffer {
	if b := ni.dir[d]; b != nil && !b.busy() && ni.eirOffset[d] <= delta {
		return b
	}
	return nil
}

// injBuffer is one single-packet injection buffer, streaming into a specific
// router input port.
type injBuffer struct {
	r    *Router
	port int
	// ix is the buffer's index in BufferAssigned events: 0 = local,
	// EquiNox 1..4 = East..North EIR buffer, MultiPort = port ordinal.
	ix int32
	// interposer marks an EIR buffer: its flits cross an interposer wire.
	interposer bool

	pkt   *Packet // loaded packet; sent of its flits have entered the router
	h     int32   // pkt's packet-table slot
	sent  int
	vc    int
	stall stallNote
}

func (b *injBuffer) busy() bool { return b.pkt != nil }

// load assigns a packet to the buffer. With vc == noAlloc the VC is chosen at
// the first stream attempt, so a briefly full router buffer does not drop the
// assignment.
func (b *injBuffer) load(n *Network, p *Packet, vc int, now int64) {
	b.pkt, b.h, b.sent, b.vc = p, n.admit(p), 0, vc
	if vc != noAlloc {
		p.InjectedAt = now
	}
	b.stall = stallNote{}
	if len(n.obs) != 0 {
		n.emit(now, p, BufferAssigned, b.r.id, b.ix, int32(vc))
	}
}

// stream pushes up to one flit of the loaded packet into the router input VC.
// Flits are built one at a time as they enter the router.
func (b *injBuffer) stream(n *Network, now int64) {
	p := b.pkt
	if p == nil {
		return
	}
	if b.vc == noAlloc {
		vc := injectVC(n, b.r.portVCs(b.port), ClassOf(p.Type))
		if vc == noAlloc {
			if len(n.obs) != 0 {
				n.stall(&b.stall, now, p, b.r.id, StallNoVC)
			}
			return
		}
		b.vc = vc
		p.InjectedAt = now
	}
	slot := n.slot(b.port, b.vc)
	if b.r.vcs[slot].free() <= 0 {
		if len(n.obs) != 0 {
			n.stall(&b.stall, now, p, b.r.id, StallVCFull)
		}
		return
	}
	b.r.accept(slot, Flit{pkt: b.h, Index: int16(b.sent), IsHead: b.sent == 0, IsTail: b.sent == p.Flits-1, enteredRouter: now})
	b.sent++
	if b.interposer {
		n.Stats.InterposerFlits++
	}
	b.stall = stallNote{}
	if b.sent == p.Flits {
		b.pkt, b.vc = nil, noAlloc
	}
}

// injectVC picks the input VC at the router's injection port with the most
// free space that the packet's class may use; noAlloc when every allowed VC
// is full. Packets stream back-to-back into the VC FIFO — each NI buffer is
// the only writer of its port, so flits of one packet stay contiguous and
// wormhole ordering holds without waiting for a full VC turnaround. A
// borrowed VC (monopolization) must be completely empty, mirroring the
// router-side rule: a borrowed reply must never queue behind a request.
func injectVC(n *Network, vcs []vcBuf, cls Class) int {
	best, bestFree := noAlloc, 0
	for _, vc := range n.classVCs(cls) {
		vb := &vcs[vc]
		if n.Cfg.VCPolicy != VCPrivate && vc != int(cls) && !vb.empty() {
			continue
		}
		if f := vb.free(); f > bestFree {
			best, bestFree = vc, f
		}
	}
	return best
}
