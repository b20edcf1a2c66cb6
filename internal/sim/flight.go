package sim

import (
	"fmt"

	"equinox/internal/flight"
	"equinox/internal/noc"
)

// AttachFlight attaches a flight recorder to every network (Networks
// order) and returns the capture bundling them. Call before the first
// Step, like AttachProbes. While attached, the cycle loop runs the
// starvation watchdog at the cancellation-check cadence and fails the run
// with a diagnostic dump when it fires.
func (s *System) AttachFlight(opts flight.Options) *flight.Capture {
	s.flight = &flight.Capture{
		Scheme:    s.cfg.Scheme.String(),
		Benchmark: s.prof.Name,
	}
	for _, n := range s.all {
		s.flight.Recorders = append(s.flight.Recorders, attachFlight(n, opts).rec)
	}
	return s.flight
}

// attachFlight attaches a flight observer, with its recorder, to n.
func attachFlight(n *noc.Network, opts flight.Options) *flightObserver {
	rec := flight.NewRecorder(opts)
	rec.Name = n.Cfg.Name
	rec.W, rec.H = n.Cfg.Width, n.Cfg.Height
	// At most one head flit crosses each mesh link per cycle.
	f := &flightObserver{rec: rec, held: make([]flight.Event, 0, len(n.Routers)*meshLinks)}
	n.Observe(f)
	return f
}

// flightObserver records a network's sampled lifecycle events into a flight
// recorder and feeds every ejection, sampled or not, to its watchdogs: the
// starvation detector must observe unsampled progress too. Sampling comes
// first: an unsampled event costs the ID filter and, if it is an ejection,
// the watchdog's two compares.
//
// A LinkTraverse event is stamped now+1, the cycle its flit leaves the link,
// and held until the first recorded non-Created event, or the first
// EndCycle, whose cycle reaches that stamp. That is the cycle and ring order
// of a link stage running first in each cycle: a release matters only
// relative to the next recorded event, so unsampled events need not release.
// Created events fire from TryInject, outside Step, so they never release
// the held events.
type flightObserver struct {
	rec  *flight.Recorder
	held []flight.Event
}

func (f *flightObserver) Packet(now int64, p *noc.Packet, k noc.EventKind, router int, a, b int32) {
	if !f.rec.Hit(p.ID) {
		if k == noc.Ejected {
			f.rec.EjectObserved(now, p.ID, int64(a), false)
		}
		return
	}
	if k != noc.Created {
		f.release(now)
	}
	ev := flight.Event{
		Cycle:  now,
		Pkt:    p.ID,
		Kind:   k,
		Type:   p.Type,
		Src:    int32(p.Src),
		Dst:    int32(p.Dst),
		Router: int32(router),
		A:      a,
		B:      b,
	}
	if k == noc.LinkTraverse {
		ev.Cycle++
		f.held = append(f.held, ev)
		return
	}
	f.rec.Record(ev)
	if k == noc.Ejected {
		f.rec.EjectObserved(now, p.ID, int64(a), true)
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

// flightDumpEvents bounds the last-window dump a starvation diagnostic
// carries: enough to see the stall pattern, small enough for a log line.
const flightDumpEvents = 200

// checkFlightWatchdog sweeps the starvation watchdog over every traced
// network (each against its own clock domain): it fires when a network has
// held packets in flight without ejecting any for longer than the recorder's
// stall limit. A quiescent network re-arms the baseline instead, so idle
// stretches never read as starvation. When one fires, the failure carries
// the recorder's last-window events.
func (s *System) checkFlightWatchdog() error {
	for i, n := range s.nets {
		rec := s.flight.Recorders[i]
		if n.Quiescent() {
			rec.Arm(n.Now())
			continue
		}
		starved := rec.StarvedFor(n.Now())
		if rec.StallLimit() < 0 || starved <= rec.StallLimit() {
			continue
		}
		rec.NoteStarvation()
		evs := rec.TailEvents(flightDumpEvents)
		return fmt.Errorf("sim: starvation watchdog: network %q ejected nothing for %d cycles with %d packets in flight; last %d traced events:\n%s",
			n.Cfg.Name, starved, n.InFlight(), len(evs), rec.FormatEvents(evs))
	}
	return nil
}
