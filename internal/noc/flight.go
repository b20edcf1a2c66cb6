package noc

import (
	"equinox/internal/flight"
)

// AttachFlight attaches a flight recorder to the network as an observer.
// Call before the first Step. The observer filters by packet ID and writes
// into the recorder's preallocated ring, keeping the steady state
// allocation-free.
func (n *Network) AttachFlight(opts flight.Options) *flight.Recorder {
	rec := flight.NewRecorder(opts)
	rec.Name = n.Cfg.Name
	rec.W, rec.H = n.Cfg.Width, n.Cfg.Height
	rec.TypeNames = pktNames[:]
	// At most one head flit crosses each mesh link per cycle.
	n.Observe(&flightObserver{rec: rec, held: make([]flight.Event, 0, len(n.Routers)*meshLinks)})
	return rec
}

// flightObserver records a network's sampled lifecycle events into a flight
// recorder and feeds every ejection, sampled or not, to its watchdogs: the
// starvation detector must observe unsampled progress too.
//
// A LinkTraverse event is stamped now+1, the cycle its flit leaves the link,
// and held until the first non-Created event, or the first EndCycle, whose
// cycle reaches that stamp. That is the cycle and ring order of a link stage
// running first in each cycle. Created events fire from TryInject, outside
// Step, so they never release the held events.
type flightObserver struct {
	rec  *flight.Recorder
	held []flight.Event
}

func (f *flightObserver) Packet(now int64, p *Packet, k flight.Kind, router int, a, b int32) {
	if k != flight.Created {
		f.release(now)
	}
	hit := f.rec.Hit(p.ID)
	if hit && k == flight.LinkTraverse {
		f.held = append(f.held, event(now+1, p, k, router, a, b))
	} else if hit {
		f.rec.Record(event(now, p, k, router, a, b))
	}
	if k == flight.Ejected {
		f.rec.EjectObserved(now, p.ID, int64(a), hit)
	}
}

func (f *flightObserver) EndCycle(now int64) { f.release(now) }

// release records the held LinkTraverse events, in the (router, output port)
// order traversal produced them, once cycle now reaches their stamp.
func (f *flightObserver) release(now int64) {
	if len(f.held) == 0 || now < f.held[0].Cycle {
		return
	}
	for i := range f.held {
		f.rec.Record(f.held[i])
	}
	f.held = f.held[:0]
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
	n.emit(now, p, flight.InjectStall, router, why, 0)
}
