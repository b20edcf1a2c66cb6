package noc

import (
	"fmt"
	"slices"

	"equinox/internal/flight"
	"equinox/internal/geom"
	"equinox/internal/par"
)

// Network is one physical mesh network instance with its routers, links,
// network interfaces, and ejection queues.
type Network struct {
	Cfg     Config
	Routers []*Router // index = node ID (row-major)

	nis    []injector // nis[node*spokes+spoke]
	spokes int
	// ejectQ is indexed [class][node]: requests and replies eject into
	// separate NI buffers so a backpressured request can never trap replies
	// behind it (protocol-deadlock safety at nodes receiving both classes).
	ejectQ   [NumClasses][][]*Packet
	ejectCap int

	now          int64
	lastProgress int64

	// Active-set scheduler state: Step only visits routers and NIs that hold
	// work, so idle corners of the mesh cost nothing per cycle. The lists are
	// kept sorted by index so arbitration order matches a full scan.
	active   []int32 // router IDs with buffered or in-flight flits
	newly    []int32 // routers activated since the last merge (unsorted)
	mergeBuf []int32
	activeNI []int32 // NI indices with pending packets or streaming flits
	newNI    []int32
	niMerge  []int32
	niQueued []bool

	// inflight counts packets between TryInject and PopDeliveredClass,
	// making Quiescent O(1) instead of a full-network scan. delivered counts
	// the subset sitting in ejection queues awaiting a Pop.
	inflight  int64
	delivered int

	// flitPool recycles Flit structs from ejected packets back to the NIs so
	// steady-state injection allocates nothing.
	flitPool []*Flit

	// creditSlab holds every output port's per-VC credit counters
	// (outputPort.credits are windows of it). credits stages phase-4
	// upstream credit returns, as creditSlab indices, for an end-of-phase
	// apply. Deferral makes credit visibility independent of the order
	// routers are scanned in, which is what lets the sharded stepper
	// reproduce the serial results bit-for-bit (see shard.go).
	creditSlab []int
	credits    []int32

	// scratch is the serial stepper's allocator working memory (shard
	// workers carry their own).
	scratch allocScratch

	// Sharded-stepper state; empty/nil when Cfg.Shards <= 1.
	shards   []*shardState
	shardOf  []int32 // router ID → shard index
	group    *par.Group
	phaseFn  func(int) // bound runShardPhase, built once to avoid per-cycle closures
	curPhase int

	// barrierWaitNS accumulates the sampled per-phase barrier waits (one
	// sample every barrierSampleEvery sharded cycles); BarrierWaitNS exposes
	// it for per-run span attribution.
	barrierWaitNS [numPhases]int64

	// classVCList is the precomputed per-class downstream-VC preference
	// order (see initClassVCs).
	classVCList [NumClasses][]int
	// nvc is the slot stride: the per-port VC count (see slot).
	nvc int
	// slotPort maps a slot back to its input port (slot / nvc, tabulated).
	slotPort [maskBits]uint8

	Stats Stats

	// probe, when attached, samples occupancy and link state every
	// probe.Every cycles; nil costs one pointer compare per Step.
	probe *Probe

	// telem, when attached, feeds the windowed telemetry time-series
	// (internal/telemetry) from the same seam; nil costs one pointer
	// compare per Step.
	telem *telemetrySampler

	// flight, when attached, records per-packet lifecycle events into a
	// preallocated ring; nil costs one pointer compare per hook site.
	flight *flight.Recorder

	// OnDeliver, when non-nil, is invoked for every packet as its tail flit
	// ejects (before the packet enters the delivery queue). Used by the
	// trace package; must not retain the packet's payload beyond the call.
	OnDeliver func(*Packet)
}

// injector is the per-node network interface seen by the simulator.
type injector interface {
	// tryEnqueue accepts a packet into the NI queue if space remains.
	tryEnqueue(p *Packet, now int64) bool
	// queueSpace returns the number of free packet slots.
	queueSpace() int
	// step streams flits into the attached router(s).
	step(now int64)
	// pending reports whether the NI still holds any packet or flits.
	pending() bool
	// backlog adds the NI's held flits (queued packets plus unsent streaming
	// remainders) into per, indexed by the ID of the router the flits are
	// waiting to enter. Called from Probe.sample; must not allocate.
	backlog(per []int64)
}

// New builds a network from a configuration. Router state is laid out flat:
// routers, ports, VC buffers, their flit rings, credit/owner counters, links
// and NI queues are windows of a handful of per-network slabs indexed
// router × port × VC, not separate heap objects.
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
	rings := make([]*Flit, totIn*nvc*depth)
	n.creditSlab = make([]int, totOut*nvc)
	owners := make([]int, totOut*nvc)
	for i := range vcs {
		vcs[i] = vcBuf{q: rings[i*depth : (i+1)*depth : (i+1)*depth], outPort: noAlloc, outVC: noAlloc, credit: noAlloc}
	}
	for i := range inPorts {
		inPorts[i] = inputPort{vcs: vcs[i*nvc : (i+1)*nvc : (i+1)*nvc], upCredit: noAlloc}
	}
	for i := range n.creditSlab {
		n.creditSlab[i], owners[i] = depth, noAlloc
	}
	for i := range outPorts {
		outPorts[i] = outputPort{
			credits:    n.creditSlab[i*nvc : (i+1)*nvc : (i+1)*nvc],
			owner:      owners[i*nvc : (i+1)*nvc : (i+1)*nvc],
			creditBase: i * nvc,
			grant:      noAlloc,
		}
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
	// Mesh links (latency 1: the ring holds one flit).
	const linkLatency = 1
	links := make([]link, 0, 2*((cfg.Width-1)*cfg.Height+cfg.Width*(cfg.Height-1)))
	linkRings := make([]flitInFlight, cap(links)*linkLatency)
	for _, r := range n.Routers {
		for _, d := range []geom.Direction{geom.East, geom.West, geom.South, geom.North} {
			np := r.pos.Add(d.Delta())
			if !np.In(cfg.Width, cfg.Height) {
				continue
			}
			nb := n.Routers[np.ID(cfg.Width)]
			toPort := int(d.Opposite())
			k := len(links)
			links = append(links, link{
				to: nb, toPort: toPort, toSlot: n.slot(toPort, 0), latency: linkLatency,
				q: linkRings[k*linkLatency : (k+1)*linkLatency : (k+1)*linkLatency],
			})
			r.out[PortID(d)].link = &links[k]
			r.dirOut[d] = int(d)
			nb.in[toPort].upCredit = r.out[PortID(d)].creditBase
		}
	}

	// Ejection queues, one per class per node, preallocated to the most an
	// eject-ready check can let through: ejectCap-1 waiting plus one tail per
	// ejection port in a cycle.
	ejectSlots := n.ejectCap - 1 + max(cfg.EjectPortsPerCB, 1)
	ejectSlab := make([]*Packet, int(NumClasses)*cfg.Nodes()*ejectSlots)
	for c := range n.ejectQ {
		n.ejectQ[c] = make([][]*Packet, cfg.Nodes())
		for node := range n.ejectQ[c] {
			k := (c*cfg.Nodes() + node) * ejectSlots
			n.ejectQ[c][node] = ejectSlab[k : k : k+ejectSlots]
		}
	}

	// NIs. EquiNox CB NIs are created when EIR groups exist for the tile;
	// MultiPort CB NIs when InjectPortsPerCB > 1; concentrated nodes get one
	// independent NI per spoke; standard NIs otherwise.
	isCB := cfg.isCB()
	for _, r := range n.Routers {
		switch {
		case n.spokes > 1:
			n.nis = append(n.nis, newStandardNI(n, r, int(PortLocal)))
			for k := 1; k < n.spokes; k++ {
				n.nis = append(n.nis, newStandardNI(n, r, addInjectionPort(r)))
			}
		case cfg.EIRGroups != nil && isCB[r.id]:
			n.nis = append(n.nis, newEquiNoxNI(n, r, cfg.EIRGroups[r.pos]))
		case cfg.InjectPortsPerCB > 1 && isCB[r.id]:
			n.nis = append(n.nis, newMultiPortNI(n, r, cfg.InjectPortsPerCB))
		default:
			n.nis = append(n.nis, newStandardNI(n, r, int(PortLocal)))
		}
	}

	// Every port (MultiPort ejection, EIR and spoke injection) now exists.
	for _, r := range n.Routers {
		r.finalize()
	}
	n.niQueued = make([]bool, len(n.nis))
	if cfg.Shards > 1 {
		n.initShards()
	}
	return n, nil
}

// markNIActive puts an NI on the active worklist; idempotent.
func (n *Network) markNIActive(ix int) {
	if !n.niQueued[ix] {
		n.niQueued[ix] = true
		n.newNI = append(n.newNI, int32(ix))
	}
}

// mergeSorted merges the sorted worklist with newly activated indices
// (disjoint by construction: the queued flag keeps an index out of both).
func mergeSorted(active, newly, buf []int32) (merged, spare []int32) {
	slices.Sort(newly)
	merged = buf[:0]
	i, j := 0, 0
	for i < len(active) && j < len(newly) {
		if active[i] < newly[j] {
			merged = append(merged, active[i])
			i++
		} else {
			merged = append(merged, newly[j])
			j++
		}
	}
	merged = append(merged, active[i:]...)
	merged = append(merged, newly[j:]...)
	return merged, active[:0]
}

func (n *Network) mergeActive() {
	// Sharded networks collect activations per shard (markActive must not
	// append to a shared list from concurrent phase workers); gather them
	// here. mergeSorted sorts, so concatenation order is irrelevant.
	for _, sh := range n.shards {
		if len(sh.newly) > 0 {
			n.newly = append(n.newly, sh.newly...)
			sh.newly = sh.newly[:0]
		}
	}
	if len(n.newly) == 0 {
		return
	}
	n.active, n.mergeBuf = mergeSorted(n.active, n.newly, n.mergeBuf)
	n.newly = n.newly[:0]
}

func (n *Network) mergeActiveNIs() {
	if len(n.newNI) == 0 {
		return
	}
	n.activeNI, n.niMerge = mergeSorted(n.activeNI, n.newNI, n.niMerge)
	n.newNI = n.newNI[:0]
}

// Now returns the current cycle of this network's clock domain.
func (n *Network) Now() int64 { return n.now }

// TryInject enqueues a packet at its source NI (the spoke selected by
// Packet.Spoke on concentrated networks); false if the queue is full. The
// packet's Flits field is set from the network's flit width.
func (n *Network) TryInject(p *Packet, now int64) bool {
	ix := p.Src*n.spokes + p.Spoke%n.spokes
	if n.nis[ix].tryEnqueue(p, now) {
		p.Flits = SizeInFlits(p.Type, n.Cfg.FlitBytes, n.Cfg.LineBytes)
		n.Stats.packetInjected(p, n.Cfg.FlitBytes)
		n.markNIActive(ix)
		n.inflight++
		if n.flight != nil {
			n.flightRecord(now, p, flight.Created, p.Src, int32(ClassOf(p.Type)), noAlloc)
		}
		return true
	}
	return false
}

// InjectSpace returns the free packet slots at a node's NI queue (spoke 0).
func (n *Network) InjectSpace(node int) int { return n.nis[node*n.spokes].queueSpace() }

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
	n.inflight--
	n.delivered--
	return p
}

// DeliveredPending returns how many delivered packets are waiting to be
// popped across all nodes; endpoint drains can skip the network when zero.
func (n *Network) DeliveredPending() int { return n.delivered }

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

// ejectFlit consumes a flit at the ejection port; on the tail flit the
// packet is delivered. When called from a shard worker (sh non-nil), every
// effect that leaves the ejecting router — flight events, OnDeliver, flit
// recycling, stats — is staged for the phase barrier; the ejection queue
// itself is per node and thus shard-local.
func (n *Network) ejectFlit(node int, f *Flit, now int64, sh *shardState) {
	if f.IsTail {
		f.Pkt.DeliveredAt = now
		c := ClassOf(f.Pkt.Type)
		n.ejectQ[c][node] = append(n.ejectQ[c][node], f.Pkt)
		if sh != nil {
			sh.delivered++
			sh.stats.packetDelivered(f.Pkt, n.Cfg)
		} else {
			n.delivered++
			n.Stats.packetDelivered(f.Pkt, n.Cfg)
		}
		if fr := n.flight; fr != nil {
			lat := now - f.Pkt.CreatedAt
			sampled := fr.Hit(f.Pkt.ID)
			ev := flight.Event{
				Cycle: now, Pkt: f.Pkt.ID, Kind: flight.Ejected,
				Type: uint8(f.Pkt.Type), Src: int32(f.Pkt.Src), Dst: int32(f.Pkt.Dst),
				Router: int32(node), A: int32(lat),
			}
			if sh != nil {
				sh.fops = append(sh.fops, stagedFlightOp{ev: ev, lat: lat, eject: true, sampled: sampled})
			} else {
				if sampled {
					fr.Record(ev)
				}
				// Every ejection (sampled or not) feeds the watchdogs: the
				// starvation detector must observe unsampled progress too.
				fr.EjectObserved(now, f.Pkt.ID, lat, sampled)
			}
		}
		if n.OnDeliver != nil {
			if sh != nil {
				sh.delivers = append(sh.delivers, f.Pkt)
			} else {
				n.OnDeliver(f.Pkt)
			}
		}
	}
	// The flit is dead: recycle it to the NI-side pool.
	if sh != nil {
		sh.frees = append(sh.frees, f)
	} else {
		n.flitPool = append(n.flitPool, f)
	}
}

// flitSlabSize is how many Flit structs the pool allocates at once when it
// runs dry (a few packets' worth).
const flitSlabSize = 64

// makeFlits serializes a packet into buf (reused across packets), drawing
// Flit structs from the recycle pool so steady-state injection is
// allocation-free.
func (n *Network) makeFlits(p *Packet, buf []*Flit) []*Flit {
	buf = buf[:0]
	for i := 0; i < p.Flits; i++ {
		if len(n.flitPool) == 0 {
			// Grow the pool a slab at a time, not a flit at a time.
			slab := make([]Flit, flitSlabSize)
			for j := range slab {
				n.flitPool = append(n.flitPool, &slab[j])
			}
		}
		k := len(n.flitPool) - 1
		f := n.flitPool[k]
		n.flitPool = n.flitPool[:k]
		*f = Flit{
			Pkt:    p,
			Index:  i,
			IsHead: i == 0,
			IsTail: i == p.Flits-1,
		}
		buf = append(buf, f)
	}
	return buf
}

// Step advances the network by one cycle. Only routers and NIs on the
// active worklists are visited; everything else is provably a no-op this
// cycle, so low-load sweeps stop paying for the full mesh. Worklists are
// iterated in ascending index order, which reproduces the arbitration
// ordering of a full scan exactly (bit-identical results). With
// Cfg.Shards > 1 the phases run band-parallel (see shard.go) with the same
// guarantee.
func (n *Network) Step() {
	if n.shards != nil {
		n.stepSharded()
		return
	}
	now := n.now
	n.mergeActive()
	// 1. Deliver link arrivals due this cycle.
	for _, id := range n.active {
		r := n.Routers[id]
		if r.linkBusy != 0 {
			r.deliverArrivals(now, nil)
		}
	}
	// 2. NI injection streams flits into router input buffers.
	n.mergeActiveNIs()
	for _, ix := range n.activeNI {
		n.nis[ix].step(now)
	}
	// Routers that received their first flit in phases 1–2 must take part in
	// this cycle's allocation, exactly as under a full scan.
	n.mergeActive()
	// 3. Routing + VC allocation.
	for _, id := range n.active {
		r := n.Routers[id]
		if r.needVA != 0 {
			r.vcAllocate(now, nil)
		}
	}
	// 4. Switch allocation + traversal.
	moved := 0
	for _, id := range n.active {
		r := n.Routers[id]
		if r.ready != 0 {
			moved += r.switchAllocate(now, nil)
		}
	}
	// Deferred credit returns become visible between cycles, never within
	// phase 4 — the serial stepper matches the sharded one exactly.
	n.applyCredits(n.credits)
	n.credits = n.credits[:0]
	if moved > 0 {
		n.lastProgress = now
	}
	if n.probe != nil && now%n.probe.Every == 0 {
		n.probe.sample(n)
	}
	if n.telem != nil && now%n.telem.every == 0 {
		n.telem.tick(n, now)
	}
	n.pruneActive()
	n.Stats.cycles++
	n.now++
}

// pruneActive retires routers and NIs whose work drained this cycle.
func (n *Network) pruneActive() {
	w := 0
	for _, id := range n.active {
		r := n.Routers[id]
		if r.needVA|r.ready|r.linkBusy != 0 {
			n.active[w] = id
			w++
		} else {
			r.queued = false
		}
	}
	n.active = n.active[:w]
	w = 0
	for _, ix := range n.activeNI {
		if n.nis[ix].pending() {
			n.activeNI[w] = ix
			w++
		} else {
			n.niQueued[ix] = false
		}
	}
	n.activeNI = n.activeNI[:w]
}

// Quiescent reports whether no packet or flit remains anywhere in the
// network (all injected traffic delivered and consumed). O(1): the inflight
// counter tracks every packet from TryInject to PopDeliveredClass, and no
// flit can outlive its packet's stay in the network.
func (n *Network) Quiescent() bool { return n.inflight == 0 }

// quiescentScan is the full-network reference implementation of Quiescent,
// kept for tests that cross-check the O(1) counter.
func (n *Network) quiescentScan() bool {
	for _, ni := range n.nis {
		if ni.pending() {
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
		for _, op := range r.out {
			if op.link != nil && op.link.n > 0 {
				return false
			}
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

// standardNI is the baseline network interface. Request and reply packets
// wait in separate FIFOs (as in real NIs, where the two classes have
// dedicated buffers): on a shared physical network a blocked request must
// never trap a reply behind it, or the M2F2M protocol loop deadlocks.
type standardNI struct {
	net    *Network
	r      *Router
	port   int // router input port this NI feeds
	queues [NumClasses][]*Packet
	cap    int
	cur    *Packet
	flits  []*Flit
	sent   int
	curVC  int
	rrCls  int
	stall  stallNote
}

// newStandardNI builds a standard NI feeding the given input port (the
// local port, or a concentration spoke's). NIs take no credits: they inspect
// the router's buffer space directly.
func newStandardNI(n *Network, r *Router, port int) *standardNI {
	ni := &standardNI{net: n, r: r, port: port, cap: n.Cfg.InjQueuePackets, curVC: noAlloc}
	ni.queues = newClassQueues(ni.cap)
	return ni
}

// newClassQueues preallocates an NI's per-class packet FIFOs at capacity so
// enqueues never grow them.
func newClassQueues(capacity int) (qs [NumClasses][]*Packet) {
	slab := make([]*Packet, int(NumClasses)*capacity)
	for c := range qs {
		qs[c] = slab[c*capacity : c*capacity : (c+1)*capacity]
	}
	return qs
}

func (ni *standardNI) tryEnqueue(p *Packet, now int64) bool {
	c := ClassOf(p.Type)
	if len(ni.queues[c]) >= ni.cap {
		return false
	}
	p.CreatedAt = now
	ni.queues[c] = append(ni.queues[c], p)
	return true
}

func (ni *standardNI) queueSpace() int {
	s := ni.cap - len(ni.queues[Request])
	if r := ni.cap - len(ni.queues[Reply]); r < s {
		s = r
	}
	return s
}

func (ni *standardNI) pending() bool {
	return len(ni.queues[Request]) > 0 || len(ni.queues[Reply]) > 0 || ni.cur != nil
}

func (ni *standardNI) backlog(per []int64) {
	var f int64
	for _, q := range ni.queues {
		for _, p := range q {
			f += int64(p.Flits)
		}
	}
	if ni.cur != nil {
		f += int64(len(ni.flits) - ni.sent)
	}
	per[ni.r.id] += f
}

// injectVC picks the input VC at the router's injection port with the most
// free space that the packet's class may use; noAlloc when every allowed VC
// is full. Packets stream back-to-back into the VC FIFO — each NI buffer is
// the only writer of its port, so flits of one packet stay contiguous and
// wormhole ordering holds without waiting for a full VC turnaround. A
// borrowed VC (monopolization) must be completely empty, mirroring the
// router-side rule: a borrowed reply must never queue behind a request.
func injectVC(n *Network, ip *inputPort, cls Class) int {
	best, bestFree := noAlloc, 0
	for _, vc := range n.classVCs(cls) {
		vb := &ip.vcs[vc]
		if n.Cfg.VCPolicy != VCPrivate && vc != int(cls) && !vb.empty() {
			continue
		}
		if f := vb.free(); f > bestFree {
			best, bestFree = vc, f
		}
	}
	return best
}

func (ni *standardNI) step(now int64) {
	if ni.cur == nil {
		// Pick a class whose head packet can enter a VC right now,
		// round-robin between classes for fairness; a blocked class never
		// prevents the other from injecting.
		ip := &ni.r.in[ni.port]
		for k := 0; k < int(NumClasses); k++ {
			c := Class((ni.rrCls + k) % int(NumClasses))
			if len(ni.queues[c]) == 0 {
				continue
			}
			vc := injectVC(ni.net, ip, c)
			if vc == noAlloc {
				continue
			}
			ni.queues[c], ni.cur = popPacket(ni.queues[c])
			ni.flits = ni.net.makeFlits(ni.cur, ni.flits)
			ni.sent = 0
			ni.curVC = vc
			ni.cur.InjectedAt = now
			ni.rrCls = (int(c) + 1) % int(NumClasses)
			if ni.net.flight != nil {
				ni.stall.clear()
				ni.net.flightRecord(now, ni.cur, flight.BufferAssigned, ni.r.id, 0, int32(vc))
			}
			break
		}
		if ni.cur == nil {
			if ni.net.flight != nil {
				// The head of the first backlogged class (in this cycle's
				// arbitration order) is the packet being stalled.
				for k := 0; k < int(NumClasses); k++ {
					c := Class((ni.rrCls + k) % int(NumClasses))
					if len(ni.queues[c]) > 0 {
						ni.net.flightStall(&ni.stall, now, ni.queues[c][0], ni.r.id, flight.StallNoVC)
						break
					}
				}
			}
			return
		}
	}
	// Stream one flit per cycle while buffer space remains.
	slot := ni.net.slot(ni.port, ni.curVC)
	if ni.r.vcs[slot].free() > 0 && ni.sent < len(ni.flits) {
		f := ni.flits[ni.sent]
		f.enteredRouter = now
		ni.r.accept(slot, f)
		ni.sent++
		if ni.net.flight != nil {
			ni.stall.clear()
		}
		if ni.sent == len(ni.flits) {
			// Keep the flits buffer for reuse; only drop the references.
			ni.cur, ni.flits, ni.curVC = nil, ni.flits[:0], noAlloc
		}
	} else if ni.net.flight != nil && ni.cur != nil {
		ni.net.flightStall(&ni.stall, now, ni.cur, ni.r.id, flight.StallVCFull)
	}
}

// popPacket removes the queue head, compacting in place so the backing
// array is reused instead of walking forward allocation by allocation.
func popPacket(q []*Packet) ([]*Packet, *Packet) {
	p := q[0]
	copy(q, q[1:])
	return q[:len(q)-1], p
}

var _ injector = (*standardNI)(nil)

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
			for vi := range r.in[pi].vcs {
				vb := &r.in[pi].vcs[vi]
				if vb.empty() {
					continue
				}
				if !hdr {
					add(fmt.Sprintf("router %v (node %d):\n", r.pos, r.node))
					hdr = true
				}
				f := vb.at(0)
				reason := "?"
				if vb.outPort == noAlloc {
					reason = "awaiting VC alloc"
				} else {
					op := &r.out[vb.outPort]
					if op.eject {
						if !n.ejectReady(r.node, ClassOf(f.Pkt.Type)) {
							reason = "eject queue full"
						} else {
							reason = "eject ready"
						}
					} else if op.credits[vb.outVC] <= 0 {
						reason = "no credits"
					} else {
						reason = "has credits"
					}
				}
				add(fmt.Sprintf("  in[%d].vc[%d]: %d flits, head pkt %v %d->%d out=%d/%d (%s)\n",
					pi, vi, vb.n, f.Pkt.Type, f.Pkt.Src, f.Pkt.Dst, vb.outPort, vb.outVC, reason))
			}
		}
	}
	return string(b)
}
