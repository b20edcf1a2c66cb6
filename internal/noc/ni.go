package noc

import (
	"equinox/internal/flight"
	"equinox/internal/geom"
)

// addInjectionPort attaches the router's next planned injection-only input
// port (its buffers already sit in the slabs) and returns its index. Used for
// EIR input ports, MultiPort CB injection and concentration spokes; going
// past the window Config.portCounts planned is a construction bug and panics.
func addInjectionPort(r *Router) int {
	r.in = r.in[:len(r.in)+1]
	return len(r.in) - 1
}

// injBuffer is one single-packet injection buffer of a multi-buffer NI,
// streaming into a specific router input port.
type injBuffer struct {
	r    *Router
	port int
	// ix is the buffer's flight-recorder index: 0 = local, EquiNox 1..4 =
	// East..North EIR buffer, MultiPort = port ordinal.
	ix int32

	pkt   *Packet // loaded packet; sent of its flits have entered the router
	sent  int
	vc    int
	stall stallNote
}

func (b *injBuffer) busy() bool { return b.pkt != nil }

// remaining is the number of loaded flits not yet streamed into the router.
func (b *injBuffer) remaining() int64 {
	if b.pkt == nil {
		return 0
	}
	return int64(b.pkt.Flits - b.sent)
}

// load assigns a packet to the buffer. The VC is chosen at the first stream
// attempt so a briefly full router buffer does not drop the assignment.
func (b *injBuffer) load(n *Network, p *Packet, now int64) {
	b.pkt = p
	b.sent = 0
	b.vc = noAlloc
	if n.flight != nil {
		b.stall.clear()
		n.flightRecord(now, p, flight.BufferAssigned, b.r.id, b.ix, noAlloc)
	}
}

// stream pushes up to one flit into the router input VC; returns true while
// the buffer still holds unsent flits.
func (b *injBuffer) stream(n *Network, now int64) {
	if b.pkt == nil {
		return
	}
	if b.vc == noAlloc {
		vc := injectVC(n, &b.r.in[b.port], ClassOf(b.pkt.Type))
		if vc == noAlloc {
			if n.flight != nil {
				n.flightStall(&b.stall, now, b.pkt, b.r.id, flight.StallNoVC)
			}
			return
		}
		b.vc = vc
		b.pkt.InjectedAt = now
	}
	slot := n.slot(b.port, b.vc)
	if b.r.vcs[slot].free() > 0 {
		b.r.accept(slot, nextFlit(b.pkt, b.sent, now))
		b.sent++
		if n.flight != nil {
			b.stall.clear()
		}
		if b.sent == b.pkt.Flits {
			b.pkt, b.vc = nil, noAlloc
		}
	} else if n.flight != nil {
		n.flightStall(&b.stall, now, b.pkt, b.r.id, flight.StallVCFull)
	}
}

// equiNoxNI is the modified CB network interface of EquiNox (§4.4, Figure
// 8): the injection buffer is split into five single-packet buffers — four
// wired through the interposer to the CB's EIRs (one per axis direction) and
// one to the local router. A buffer selector steers each packet to a
// shortest-path EIR, to the local router when the preferred buffers are
// busy, and retries otherwise.
type equiNoxNI struct {
	net   *Network
	r     *Router // local CB router
	cb    geom.Point
	queue []*Packet
	cap   int

	local *injBuffer
	// dir buffers indexed by geom.Direction (East..North); nil when the CB
	// has no EIR in that direction.
	dir [geom.NumDirections]*injBuffer
	// eirOffset is the EIR's distance from the CB along its direction.
	eirOffset [geom.NumDirections]int

	rrQuadrant int // round-robin for two-candidate quadrant selection
	stall      stallNote
}

func newEquiNoxNI(n *Network, r *Router, eirs []geom.Point) *equiNoxNI {
	ni := &equiNoxNI{
		net:   n,
		r:     r,
		cb:    r.pos,
		cap:   n.Cfg.InjQueuePackets,
		local: &injBuffer{r: r, port: int(PortLocal), ix: 0, vc: noAlloc},
	}
	for _, e := range eirs {
		dirs := geom.DirTowards(ni.cb, e)
		if len(dirs) != 1 {
			continue // EIRs are on-axis by construction; ignore malformed ones
		}
		d := dirs[0]
		er := n.RouterAt(e)
		port := addInjectionPort(er)
		ni.dir[d] = &injBuffer{r: er, port: port, ix: int32(d), vc: noAlloc}
		ni.eirOffset[d] = geom.Manhattan(ni.cb, e)
	}
	return ni
}

func (ni *equiNoxNI) tryEnqueue(p *Packet, now int64) bool {
	if len(ni.queue) >= ni.cap {
		return false
	}
	p.CreatedAt = now
	ni.queue = append(ni.queue, p)
	return true
}

func (ni *equiNoxNI) queueSpace() int { return ni.cap - len(ni.queue) }

func (ni *equiNoxNI) pending() bool {
	if len(ni.queue) > 0 || ni.local.busy() {
		return true
	}
	for _, b := range ni.dir {
		if b != nil && b.busy() {
			return true
		}
	}
	return false
}

// backlog attributes the undispatched queue and the local buffer to the CB
// router, and each direction buffer's remainder to its EIR router — that is
// where those flits physically wait, and the dispersal the probe measures.
func (ni *equiNoxNI) backlog(per []int64) {
	var f int64
	for _, p := range ni.queue {
		f += int64(p.Flits)
	}
	f += ni.local.remaining()
	per[ni.r.id] += f
	for _, b := range ni.dir {
		if b != nil {
			per[b.r.id] += b.remaining()
		}
	}
}

// shortestPathBuffer returns the EIR buffer for direction d if that EIR lies
// on a shortest path to a destination with axis delta `delta` (|offset| must
// not overshoot |delta|).
func (ni *equiNoxNI) shortestPathBuffer(d geom.Direction, delta int) *injBuffer {
	b := ni.dir[d]
	if b == nil {
		return nil
	}
	if ni.eirOffset[d] > delta {
		return nil
	}
	return b
}

// selectBuffer implements the paper's Buffer Decision Policy ("Buffer
// Selection 1"). It returns the chosen buffer, or nil to retry next cycle.
func (ni *equiNoxNI) selectBuffer(dst geom.Point) *injBuffer {
	dx := dst.X - ni.cb.X
	dy := dst.Y - ni.cb.Y
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

	if dx == 0 || dy == 0 {
		// On-axis destination: one and only one shortest-path EIR.
		b := xb
		if dx == 0 {
			b = yb
		}
		if b != nil && !b.busy() {
			return b
		}
		if !ni.local.busy() {
			return ni.local
		}
		return nil
	}
	// Quadrant destination: up to two shortest-path EIRs.
	xOK := xb != nil && !xb.busy()
	yOK := yb != nil && !yb.busy()
	switch {
	case xOK && yOK:
		if ni.rrQuadrant ^= 1; ni.rrQuadrant == 1 {
			return yb
		}
		return xb
	case xOK:
		return xb
	case yOK:
		return yb
	}
	if !ni.local.busy() {
		return ni.local
	}
	return nil
}

func (ni *equiNoxNI) step(now int64) {
	// Dispatch the queue head to a buffer per the selection policy.
	if len(ni.queue) > 0 {
		p := ni.queue[0]
		dst := geom.FromID(p.Dst, ni.net.Cfg.Width)
		if b := ni.selectBuffer(dst); b != nil {
			ni.queue, _ = popPacket(ni.queue)
			b.load(ni.net, p, now)
			if ni.net.flight != nil {
				ni.stall.clear()
			}
		} else if ni.net.flight != nil {
			ni.net.flightStall(&ni.stall, now, p, ni.r.id, flight.StallBuffersBusy)
		}
	}
	// All five buffers stream concurrently (the split buffers are the whole
	// point: up to five flits leave the NI per cycle). Flits that go to an
	// EIR buffer cross an interposer wire.
	ni.local.stream(ni.net, now)
	for d := geom.East; d < geom.NumDirections; d++ {
		if b := ni.dir[d]; b != nil {
			before := b.sent
			b.stream(ni.net, now)
			if b.sent > before {
				ni.net.Stats.InterposerFlits++
			}
		}
	}
}

var _ injector = (*equiNoxNI)(nil)

// multiPortNI models the MultiPort scheme [2]: the NI owns several
// single-packet buffers, each wired to its own injection port on the local
// router, widening injection bandwidth without distributing it. Requests
// and replies wait in separate FIFOs (see standardNI).
type multiPortNI struct {
	net    *Network
	r      *Router
	queues [NumClasses][]*Packet
	cap    int
	bufs   []*injBuffer
	rr     int
	rrCls  int
	stall  stallNote
}

func newMultiPortNI(n *Network, r *Router, ports int) *multiPortNI {
	ni := &multiPortNI{net: n, r: r, cap: n.Cfg.InjQueuePackets}
	ni.queues = newClassQueues(ni.cap)
	ni.bufs = append(ni.bufs, &injBuffer{r: r, port: int(PortLocal), ix: 0, vc: noAlloc})
	for k := 1; k < ports; k++ {
		port := addInjectionPort(r)
		ni.bufs = append(ni.bufs, &injBuffer{r: r, port: port, ix: int32(k), vc: noAlloc})
	}
	return ni
}

func (ni *multiPortNI) tryEnqueue(p *Packet, now int64) bool {
	c := ClassOf(p.Type)
	if len(ni.queues[c]) >= ni.cap {
		return false
	}
	p.CreatedAt = now
	ni.queues[c] = append(ni.queues[c], p)
	return true
}

func (ni *multiPortNI) queueSpace() int {
	s := ni.cap - len(ni.queues[Request])
	if r := ni.cap - len(ni.queues[Reply]); r < s {
		s = r
	}
	return s
}

func (ni *multiPortNI) pending() bool {
	if len(ni.queues[Request]) > 0 || len(ni.queues[Reply]) > 0 {
		return true
	}
	for _, b := range ni.bufs {
		if b.busy() {
			return true
		}
	}
	return false
}

// backlog: every multi-port buffer feeds the same CB router.
func (ni *multiPortNI) backlog(per []int64) {
	var f int64
	for _, q := range ni.queues {
		for _, p := range q {
			f += int64(p.Flits)
		}
	}
	for _, b := range ni.bufs {
		f += b.remaining()
	}
	per[ni.r.id] += f
}

// busyOf counts buffers currently streaming packets of a class (a method,
// not a closure, to keep the per-cycle step allocation-free).
func (ni *multiPortNI) busyOf(c Class) int {
	n := 0
	for _, b := range ni.bufs {
		if b.busy() && ClassOf(b.pkt.Type) == c {
			n++
		}
	}
	return n
}

func (ni *multiPortNI) step(now int64) {
	// Assign one head packet to a free buffer — one dispatch per cycle is
	// the single NI core of Figure 8 — alternating classes so a blocked
	// class never starves the other. One class may never occupy every
	// buffer: a backpressured request stream hogging all buffers would trap
	// replies in the NI and close the M2F2M protocol loop.
	assigned := false
	for k := 0; k < int(NumClasses) && !assigned; k++ {
		c := Class((ni.rrCls + k) % int(NumClasses))
		if len(ni.queues[c]) == 0 {
			continue
		}
		if len(ni.bufs) > 1 && ni.busyOf(c) >= len(ni.bufs)-1 {
			continue // leave one buffer for the other class
		}
		for j := 0; j < len(ni.bufs); j++ {
			b := ni.bufs[(ni.rr+j)%len(ni.bufs)]
			if !b.busy() {
				var p *Packet
				ni.queues[c], p = popPacket(ni.queues[c])
				b.load(ni.net, p, now)
				ni.rr = (ni.rr + j + 1) % len(ni.bufs)
				ni.rrCls = (int(c) + 1) % int(NumClasses)
				assigned = true
				break
			}
		}
	}
	if ni.net.flight != nil {
		if assigned {
			ni.stall.clear()
		} else {
			for k := 0; k < int(NumClasses); k++ {
				c := Class((ni.rrCls + k) % int(NumClasses))
				if len(ni.queues[c]) > 0 {
					ni.net.flightStall(&ni.stall, now, ni.queues[c][0], ni.r.id, flight.StallBuffersBusy)
					break
				}
			}
		}
	}
	for _, b := range ni.bufs {
		b.stream(ni.net, now)
	}
}

var _ injector = (*multiPortNI)(nil)
