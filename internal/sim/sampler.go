package sim

import (
	"fmt"
	"io"
	"strconv"

	"equinox/internal/geom"
	"equinox/internal/noc"
	"equinox/internal/telemetry"
)

// meshLinks is the number of directed mesh links sampled per router, one per
// non-local direction: East, West, South, North (noc.Network.Occupancy's
// link order).
const meshLinks = int(geom.NumDirections) - 1

// sampler is a network's one occupancy observer, shared by its probe and its
// telemetry series, whichever is attached first. On a cycle either is due it
// reads noc.Network.Occupancy once, with the busy links only when the probe
// is due, and feeds each consumer that is due, so each keeps its own stride.
// Every array is preallocated at attach time, so neither method allocates
// (pinned by TestInstrumentsDoNotAllocate).
type sampler struct {
	net   *noc.Network
	occ   []int64 // one sample's per-router occupancy
	links []int64 // one sample's busy mesh links; sized when a probe attaches
	probe *Probe
	tel   *telemetryFeed
}

// samplerOf returns network i's sampler (Networks order), attaching it on
// first use.
func (s *System) samplerOf(i int) *sampler {
	if s.samplers == nil {
		s.samplers = make([]*sampler, len(s.all))
	}
	if s.samplers[i] == nil {
		n := s.all[i]
		s.samplers[i] = &sampler{net: n, occ: make([]int64, len(n.Routers))}
		n.Observe(s.samplers[i])
	}
	return s.samplers[i]
}

// Packet feeds every delivery's latency to the telemetry series.
func (sp *sampler) Packet(_ int64, _ *noc.Packet, k noc.EventKind, _ int, a, _ int32) {
	if k == noc.Ejected && sp.tel != nil {
		sp.tel.series.ObserveLatency(int64(a))
	}
}

// EndCycle samples for whichever consumers are due in cycle now.
func (sp *sampler) EndCycle(now int64) {
	probe := sp.probe != nil && now%sp.probe.every == 0
	tel := sp.tel != nil && now%sp.tel.series.SampleEvery == 0
	if !probe && !tel {
		return
	}
	var links []int64
	if probe {
		links = sp.links
	}
	sp.net.Occupancy(sp.occ, links)
	if probe {
		sp.probe.add(sp.occ, links)
	}
	if tel {
		sp.tel.sample(now, sp.occ)
	}
}

// Probe accumulates a network's buffer and link state, sampled every `every`
// cycles. Occupancy counts both flits already buffered in a router's input
// VCs and the NI injection backlog waiting to enter that router. Without the
// NI term the comparison the probe exists for would be biased: EquiNox's NI
// streams whole packets into EIR-side input ports (visible as router
// occupancy), while a baseline CB's backlog piles up inside its NI queue —
// invisible to the routers even though it is exactly the paper's Figure 4
// hot spot.
type Probe struct {
	every   int64
	w, h    int
	samples int64

	// Per-router occupancy sums and maxima, indexed by router ID.
	occSum []int64
	occMax []int64
	// Per-directed-link in-flight flit counts, indexed
	// [router*meshLinks + direction-1] (East, West, South, North).
	linkSum []int64
}

// AttachProbes attaches an occupancy and link-load probe sampling every
// `every` cycles to each of the system's networks (Networks order). Call
// once, before the first Step.
func (s *System) AttachProbes(every int64) []*Probe {
	if every < 1 {
		every = 1
	}
	probes := make([]*Probe, len(s.all))
	for i, n := range s.all {
		routers := len(n.Routers)
		probes[i] = &Probe{
			every:   every,
			w:       n.Cfg.Width,
			h:       n.Cfg.Height,
			occSum:  make([]int64, routers),
			occMax:  make([]int64, routers),
			linkSum: make([]int64, routers*meshLinks),
		}
		sp := s.samplerOf(i)
		sp.probe, sp.links = probes[i], make([]int64, routers*meshLinks)
	}
	return probes
}

// add accumulates one sample. Must not allocate.
func (p *Probe) add(occ, links []int64) {
	p.samples++
	for i, o := range occ {
		p.occSum[i] += o
		if o > p.occMax[i] {
			p.occMax[i] = o
		}
	}
	for i, b := range links {
		p.linkSum[i] += b
	}
}

// MeanOccupancy returns the per-router mean occupancy in flits (input
// buffers plus NI injection backlog).
func (p *Probe) MeanOccupancy() []float64 { return meanOf(p.occSum, p.samples) }

// MeanLinkLoad returns the mean in-flight flit count per directed mesh link,
// indexed [router*4 + direction-1] (East, West, South, North); entries for
// boundary directions without a link stay zero.
func (p *Probe) MeanLinkLoad() []float64 { return meanOf(p.linkSum, p.samples) }

// meanOf divides each sum by samples; all zeros before the first sample.
func meanOf(sums []int64, samples int64) []float64 {
	out := make([]float64, len(sums))
	if samples == 0 {
		return out
	}
	for i, s := range sums {
		out[i] = float64(s) / float64(samples)
	}
	return out
}

// WriteCSV emits one row per router: id, x, y, mean and max input-buffer
// occupancy, and the mean load of each outgoing mesh link.
func (p *Probe) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "router,x,y,mean_occ,max_occ,link_e,link_w,link_s,link_n\n"); err != nil {
		return err
	}
	mean := p.MeanOccupancy()
	links := p.MeanLinkLoad()
	for i := range p.occSum {
		base := i * meshLinks
		row := fmt.Sprintf("%d,%d,%d,%s,%d,%s,%s,%s,%s\n",
			i, i%p.w, i/p.w,
			strconv.FormatFloat(mean[i], 'f', 4, 64), p.occMax[i],
			strconv.FormatFloat(links[base], 'f', 4, 64),
			strconv.FormatFloat(links[base+1], 'f', 4, 64),
			strconv.FormatFloat(links[base+2], 'f', 4, 64),
			strconv.FormatFloat(links[base+3], 'f', 4, 64))
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// CombineMeanOccupancy averages per-router mean occupancy across probes of
// same-shaped networks (e.g. one scheme's base and reply meshes), weighting
// each probe by its sample count. Probes whose mesh shape differs from the
// first probe's (Interposer-CMesh's concentrated overlay) are skipped.
func CombineMeanOccupancy(probes []*Probe) []float64 {
	var out []float64
	var samples int64
	w, h := 0, 0
	for _, p := range probes {
		if out == nil {
			out = make([]float64, len(p.occSum))
			w, h = p.w, p.h
		}
		if p.w != w || p.h != h {
			continue
		}
		for i, s := range p.occSum {
			out[i] += float64(s)
		}
		samples += p.samples
	}
	if samples == 0 {
		return out
	}
	for i := range out {
		out[i] /= float64(samples)
	}
	return out
}

// MaxMeanRatio returns max(vals)/mean(vals) — a scale-invariant measure of
// how concentrated a heat map is. A uniform map scores 1; a single hot spot
// scores close to len(vals). Zero when the map is empty or flat-zero.
func MaxMeanRatio(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var max, sum float64
	for _, v := range vals {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(vals)))
}

// telemetryFeed drives one network's telemetry.Series: latencies from the
// sampler's Ejected events, occupancy on the series' SampleEvery stride, and
// flit counts at each window flush. WindowCycles is a multiple of the
// stride, so flush boundaries always land on sampling cycles.
type telemetryFeed struct {
	net    *noc.Network
	series *telemetry.Series

	// Window-start snapshots of the network's cumulative counters; deltas
	// against them yield the per-window flit counts.
	lastInjBits int64
	lastEject   int64
}

// AttachTelemetry attaches a windowed telemetry time-series (with its
// steady-state and saturation detectors) to each of the system's networks,
// in Networks order, and returns the run's capture. Call once, before the
// first Step.
//
// Attachment is observational only: Results are bit-identical with or
// without telemetry (pinned by TestTelemetryMatchesSerial), and the
// per-cycle sampling path is allocation-free (pinned by
// TestInstrumentsDoNotAllocate).
func (s *System) AttachTelemetry(opts telemetry.Options) *telemetry.Capture {
	cap := &telemetry.Capture{
		Scheme:    s.cfg.Scheme.String(),
		Benchmark: s.prof.Name,
	}
	for i, n := range s.all {
		series := telemetry.NewSeries(n.Cfg.Name, n.Cfg.Nodes(), n.Cfg.ClockGHz, opts)
		s.samplerOf(i).tel = &telemetryFeed{net: n, series: series}
		cap.Series = append(cap.Series, series)
	}
	return cap
}

// sample records one occupancy sample and, on a window boundary, flushes
// the window. Must not allocate.
func (t *telemetryFeed) sample(now int64, occ []int64) {
	var total, max int64
	for _, o := range occ {
		total += o
		if o > max {
			max = o
		}
	}
	t.series.Occupancy(total, max)

	if now%t.series.WindowCycles != 0 || now == 0 {
		return
	}
	st := &t.net.Stats
	injBits := int64(0)
	for _, b := range st.Bits {
		injBits += b
	}
	flitBits := int64(t.net.Cfg.FlitBytes) * 8
	t.series.Flush(now, (injBits-t.lastInjBits)/flitBits, st.EjectFlits-t.lastEject)
	t.lastInjBits, t.lastEject = injBits, st.EjectFlits
}
