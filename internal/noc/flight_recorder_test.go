package noc_test

import (
	"equinox/internal/flight"
	"equinox/internal/noc"
)

func init() { noc.AttachFlightRecorder = attachFlightRecorder }

// attachFlightRecorder attaches a flightRecorder with a 4096-event ring to
// n and returns the recorder's event total.
func attachFlightRecorder(n *noc.Network) func() int64 {
	f := &flightRecorder{rec: flight.NewRecorder(flight.Options{BufferCap: 1 << 12})}
	n.Observe(f)
	return f.rec.Total
}

// flightRecorder records a network's sampled lifecycle events into a flight
// recorder and feeds every ejection to its watchdog: the hot path of
// internal/sim's flight observer, without its holding of link events until
// the cycle they land in.
type flightRecorder struct{ rec *flight.Recorder }

func (f *flightRecorder) Packet(now int64, p *noc.Packet, k noc.EventKind, router int, a, b int32) {
	sampled := f.rec.Hit(p.ID)
	if sampled {
		f.rec.Record(flight.Event{
			Cycle:  now,
			Pkt:    p.ID,
			Kind:   k,
			Type:   p.Type,
			Src:    int32(p.Src),
			Dst:    int32(p.Dst),
			Router: int32(router),
			A:      a,
			B:      b,
		})
	}
	if k == noc.Ejected {
		f.rec.EjectObserved(now, p.ID, int64(a), sampled)
	}
}

func (f *flightRecorder) EndCycle(int64) {}
