package noc

import (
	"equinox/internal/flight"
	"equinox/internal/telemetry"
)

// telemetrySampler is the observer driving one network's telemetry.Series:
// latencies from Ejected events, occupancy and flit counts from EndCycle.
// Like Probe, all of its state is preallocated at attach time and every
// per-cycle path is allocation-free (pinned by TestStepDoesNotAllocate).
//
// Cadences: occupancy is sampled every `every` (SampleEvery) cycles, and the
// window flushes every `window` cycles — a multiple of the stride, so flush
// boundaries always land on sampling cycles.
type telemetrySampler struct {
	net           *Network
	every, window int64
	series        *telemetry.Series

	// scratch holds one sample's per-router occupancy totals (input VC
	// flits plus NI injection backlog), reused across samples.
	scratch []int64

	// Window-start snapshots of the network's cumulative counters; deltas
	// against them yield the per-window flit counts.
	lastInjBits int64
	lastEject   int64
}

// AttachTelemetry builds a windowed time-series for this network and
// attaches its sampler. The returned Series is live: read it during the run
// for online detector verdicts, or Snapshot it after RunToCompletion.
func (n *Network) AttachTelemetry(opts telemetry.Options) *telemetry.Series {
	opts = opts.WithDefaults()
	s := telemetry.NewSeries(n.Cfg.Name, n.Cfg.Nodes(), n.Cfg.ClockGHz, opts)
	t := &telemetrySampler{
		net:     n,
		every:   opts.SampleEvery,
		window:  opts.WindowCycles,
		series:  s,
		scratch: make([]int64, len(n.Routers)),
	}
	n.Observe(t)
	return t.series
}

func (t *telemetrySampler) Packet(_ int64, _ *Packet, k flight.Kind, _ int, a, _ int32) {
	if k == flight.Ejected {
		t.series.ObserveLatency(int64(a))
	}
}

// EndCycle samples on every `every`-th cycle. Must not allocate.
func (t *telemetrySampler) EndCycle(now int64) {
	if now%t.every != 0 {
		return
	}
	n := t.net
	// Occupancy sample: the same accounting as Probe.EndCycle.
	n.occupancy(t.scratch)
	var total, max int64
	for _, occ := range t.scratch {
		total += occ
		if occ > max {
			max = occ
		}
	}
	t.series.Occupancy(total, max)

	if now%t.window != 0 || now == 0 {
		return
	}
	injBits := int64(0)
	for _, b := range n.Stats.Bits {
		injBits += b
	}
	flitBits := int64(n.Cfg.FlitBytes) * 8
	inj := (injBits - t.lastInjBits) / flitBits
	ej := n.Stats.EjectFlits - t.lastEject
	t.series.Flush(now, inj, ej)
	t.lastInjBits = injBits
	t.lastEject = n.Stats.EjectFlits
}
