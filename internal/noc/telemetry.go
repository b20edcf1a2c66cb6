package noc

import (
	"equinox/internal/telemetry"
)

// telemetrySampler drives one network's telemetry.Series from the cycle
// loop. Like Probe, all of its state is preallocated at attach time and
// every per-cycle path is allocation-free (pinned by TestStepDoesNotAllocate).
//
// Cadences: occupancy is sampled every SampleEvery cycles (the stride of the
// OnCycle hook), and the window flushes every `window` cycles — a multiple of
// the stride, so flush boundaries always land on sampling cycles.
type telemetrySampler struct {
	window int64
	series *telemetry.Series

	// scratch holds one sample's per-router occupancy totals (input VC
	// flits plus NI injection backlog), reused across samples.
	scratch []int64

	// Window-start snapshots of the network's cumulative counters; deltas
	// against them yield the per-window flit counts.
	lastInjBits int64
	lastEject   int64
}

// AttachTelemetry builds a windowed time-series for this network, registers
// its latency observer as a delivery hook, and starts sampling. The
// returned Series is live: read it during the run for online detector
// verdicts, or Snapshot it after RunToCompletion.
func (n *Network) AttachTelemetry(opts telemetry.Options) *telemetry.Series {
	opts = opts.WithDefaults()
	s := telemetry.NewSeries(n.Cfg.Name, n.Cfg.Nodes(), n.Cfg.ClockGHz, opts)
	t := &telemetrySampler{
		window:  opts.WindowCycles,
		series:  s,
		scratch: make([]int64, len(n.Routers)),
	}
	n.OnCycle(opts.SampleEvery, func(now int64) { t.tick(n, now) })
	n.OnDelivered(func(pkt *Packet) { s.ObserveLatency(pkt.DeliveredAt - pkt.CreatedAt) })
	return t.series
}

// tick is the sampler's OnCycle hook. Must not allocate.
func (t *telemetrySampler) tick(n *Network, now int64) {
	// Occupancy sample: the same accounting as Probe.sample.
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
