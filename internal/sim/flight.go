package sim

import (
	"fmt"

	"equinox/internal/flight"
)

// AttachFlight attaches a flight recorder to every network (Networks
// order) and returns the capture bundling them. Call before the first
// Step, like AttachProbes. While attached, the cycle loop runs the
// starvation watchdog at the cancellation-check cadence and fails the run
// with a diagnostic dump when it fires.
func (s *System) AttachFlight(opts flight.Options) *flight.Capture {
	recs := make([]*flight.Recorder, len(s.nets))
	for i, n := range s.nets {
		recs[i] = n.AttachFlight(opts)
	}
	s.flight = &flight.Capture{
		Scheme:    s.cfg.Scheme.String(),
		Benchmark: s.prof.Name,
		Recorders: recs,
	}
	return s.flight
}

// flightDumpEvents bounds the last-window dump a starvation diagnostic
// carries: enough to see the stall pattern, small enough for a log line.
const flightDumpEvents = 200

// checkFlightWatchdog sweeps the starvation watchdog over every traced
// network (each against its own clock domain) and, when one fires, returns
// the failure with the recorder's last-window events formatted into it.
func (s *System) checkFlightWatchdog() error {
	for i, n := range s.nets {
		starved, fired := n.FlightStarved()
		if !fired {
			continue
		}
		rec := s.flight.Recorders[i]
		rec.NoteStarvation()
		evs := rec.TailEvents(flightDumpEvents)
		return fmt.Errorf("sim: starvation watchdog: network %q ejected nothing for %d cycles with %d packets in flight; last %d traced events:\n%s",
			n.Cfg.Name, starved, n.InFlight(), len(evs), rec.FormatEvents(evs))
	}
	return nil
}
