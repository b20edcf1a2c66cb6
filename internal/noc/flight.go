package noc

import (
	"equinox/internal/flight"
)

// AttachFlight attaches a flight recorder to the network. Call before the
// first Step. Every lifecycle hook in the hot loop guards on the recorder
// pointer, so a detached network pays one nil compare per hook; an attached
// one filters by packet ID and writes into the recorder's preallocated
// ring, keeping the steady state allocation-free.
func (n *Network) AttachFlight(opts flight.Options) *flight.Recorder {
	rec := flight.NewRecorder(opts)
	rec.Name = n.Cfg.Name
	rec.W, rec.H = n.Cfg.Width, n.Cfg.Height
	rec.TypeNames = pktNames[:]
	n.flight = rec
	// At most one head flit crosses each mesh link per cycle.
	n.linkEvents = make([]flight.Event, 0, len(n.Routers)*meshLinks)
	return rec
}

// InFlight returns the number of packets between TryInject and
// PopDeliveredClass (the O(1) counter behind Quiescent).
func (n *Network) InFlight() int64 { return n.inflight }

// FlightStarved runs the starvation watchdog: it reports how long the
// network has held packets in flight without ejecting any, and whether that
// exceeds the recorder's stall limit. A quiescent network re-arms the
// baseline instead, so idle stretches never read as starvation. The caller
// (the simulator's cancellation-check cadence, or a test) decides what to
// do when it fires.
func (n *Network) FlightStarved() (starved int64, fired bool) {
	fr := n.flight
	if fr == nil || fr.StallLimit() < 0 {
		return 0, false
	}
	if n.Quiescent() {
		fr.Arm(n.now)
		return 0, false
	}
	s := fr.StarvedFor(n.now)
	return s, s > fr.StallLimit()
}

// flightRecord records one sampled lifecycle event. Callers on the hot path
// must guard with `n.flight != nil` before calling so the detached cost
// stays a single pointer compare.
func (n *Network) flightRecord(now int64, p *Packet, k flight.Kind, router int, a, b int32) {
	if n.flight.Hit(p.ID) {
		n.flight.Record(event(now, p, k, router, a, b))
	}
}

// flightLink notes a sampled head flit crossing a link into input slot of
// router to. Traversal deposited the flit downstream already, but it is on
// the link until the next cycle, so the LinkTraverse event is stamped now+1
// and held until the next Step records it ahead of that cycle's other events
// (flightLinkFlush) — the cycle and ring order of a link stage that runs
// first in each cycle. Callers guard with `n.flight != nil`.
func (n *Network) flightLink(now int64, p *Packet, to, slot int32) {
	if n.flight.Hit(p.ID) {
		port := int32(n.slotPort[slot])
		n.linkEvents = append(n.linkEvents, event(now+1, p, flight.LinkTraverse, int(to), port, slot-port*int32(n.nvc)))
	}
}

// flightLinkFlush records the held LinkTraverse events, in the (router,
// output port) order traversal produced them.
func (n *Network) flightLinkFlush() {
	for i := range n.linkEvents {
		n.flight.Record(n.linkEvents[i])
	}
	n.linkEvents = n.linkEvents[:0]
}

// event builds one lifecycle event of packet p.
func event(now int64, p *Packet, k flight.Kind, router int, a, b int32) flight.Event {
	return flight.Event{
		Cycle:  now,
		Pkt:    p.ID,
		Kind:   k,
		Type:   uint8(p.Type),
		Src:    int32(p.Src),
		Dst:    int32(p.Dst),
		Router: int32(router),
		A:      a,
		B:      b,
	}
}

// stallNote dedups InjectStall events: injection stalls persist for many
// cycles, and recording each one would flood the ring with duplicates. One
// event is recorded when a (packet, reason) episode starts; the episode
// ends when the owner makes progress and clears the note.
type stallNote struct {
	pkt int64
	why int32
}

func (s *stallNote) clear() { s.pkt, s.why = 0, 0 }

// flightStall records one injection-stall event per stall episode. Callers
// guard with `n.flight != nil`.
func (n *Network) flightStall(note *stallNote, now int64, p *Packet, router int, why int32) {
	fr := n.flight
	if !fr.Hit(p.ID) {
		return
	}
	if note.pkt == p.ID && note.why == why {
		return
	}
	note.pkt, note.why = p.ID, why
	fr.Record(flight.Event{
		Cycle:  now,
		Pkt:    p.ID,
		Kind:   flight.InjectStall,
		Type:   uint8(p.Type),
		Src:    int32(p.Src),
		Dst:    int32(p.Dst),
		Router: int32(router),
		A:      why,
	})
}
