// Package telemetry is the live-simulation observability layer: a
// dependency-free, preallocated windowed time-series sampled from the
// simulator's cycle loop. Where the metrics registry and the flight
// recorder report end-of-run aggregates and per-packet events, telemetry
// answers the dynamic questions of the paper's §6 methodology — has the
// run warmed up to steady state yet, and is this injection-rate point past
// the saturation knee? — while the simulation is still running.
//
// The unit of collection is the Series: one per network, holding a bounded
// ring of per-window samples (injected/ejected flit counts, accepted
// throughput, latency quantiles from a fixed-size streaming sketch and buffer
// occupancy) plus two online detectors. All state is
// preallocated at construction and updated in place, so an attached series
// adds zero steady-state allocations to the simulation hot loop (pinned by
// sim's TestInstrumentsDoNotAllocate).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// Options sizes a Series. The zero value means "the defaults" everywhere.
type Options struct {
	// SampleEvery is the occupancy sampling stride in cycles (default 64).
	// Latency and flit counts are exact regardless; only buffer occupancy is
	// subsampled.
	SampleEvery int64
	// WindowCycles is the aggregation window width in cycles (default 1024).
	// It is rounded up to a multiple of SampleEvery so window boundaries
	// land on sampling cycles.
	WindowCycles int64
	// MaxWindows bounds the ring (default 256). When a run outlives the
	// ring the oldest windows roll off; DroppedWindows counts them. The
	// detectors run online, so convergence and saturation verdicts are
	// unaffected by rolloff.
	MaxWindows int
}

// WithDefaults fills zero fields with the default sizing.
func (o Options) WithDefaults() Options {
	if o.SampleEvery < 1 {
		o.SampleEvery = 64
	}
	if o.WindowCycles < 1 {
		o.WindowCycles = 1024
	}
	if rem := o.WindowCycles % o.SampleEvery; rem != 0 {
		o.WindowCycles += o.SampleEvery - rem
	}
	if o.MaxWindows < 1 {
		o.MaxWindows = 256
	}
	return o
}

// Window is one flushed aggregation window of a network's dynamics.
type Window struct {
	// Start and End bound the window in network-local cycles; End is
	// exclusive.
	Start int64 `json:"start"`
	End   int64 `json:"end"`

	// InjectedFlits and EjectedFlits count flits accepted into the network
	// and delivered out of it during the window.
	InjectedFlits int64 `json:"injectedFlits"`
	EjectedFlits  int64 `json:"ejectedFlits"`

	// Offered and Accepted are the same counts normalized to flits per node
	// per cycle — the load axes of a classic latency-throughput curve.
	Offered  float64 `json:"offered"`
	Accepted float64 `json:"accepted"`

	// Latency quantiles of packets delivered in the window, in cycles, from
	// the streaming sketch (relative error ≤ sketch bucket ratio).
	LatP50   float64 `json:"latP50"`
	LatP95   float64 `json:"latP95"`
	LatP99   float64 `json:"latP99"`
	LatCount int64   `json:"latCount"`

	// OccMean is the mean buffered flits per router (input VCs plus NI
	// injection backlog) over the window's occupancy samples; OccMax is the
	// peak single-router sample.
	OccMean float64 `json:"occMean"`
	OccMax  int64   `json:"occMax"`
}

// sketch bucket layout: geometric bounds with ratio 2^(1/4), so a latency
// estimate is off by at most ~19% before interpolation. 96 buckets cover
// 1 cycle up to 2^24 — far beyond any simulated latency; larger values
// clamp into the last bucket.
const (
	sketchBuckets  = 96
	sketchLogRatio = 4 // buckets per octave (bound ratio 2^(1/4))
)

// sketch is a fixed-size streaming latency quantile sketch: a geometric
// histogram whose bucket i covers (2^((i-1)/4), 2^(i/4)] cycles.
type sketch struct {
	counts [sketchBuckets]int64
	total  int64
}

func (s *sketch) observe(cycles int64) {
	if cycles < 1 {
		cycles = 1
	}
	i := int(math.Log2(float64(cycles)) * sketchLogRatio)
	if i < 0 {
		i = 0
	}
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	// Log rounding can land one bucket low near a boundary; nudge up so the
	// bucket invariant (value ≤ upper bound) holds.
	if float64(cycles) > sketchUpper(i) && i < sketchBuckets-1 {
		i++
	}
	s.counts[i]++
	s.total++
}

// sketchUpper returns bucket i's upper bound in cycles.
func sketchUpper(i int) float64 {
	return math.Pow(2, float64(i+1)/sketchLogRatio)
}

// quantile returns the q-quantile estimate in cycles, interpolating by rank
// inside the covering bucket. Zero when the sketch is empty.
func (s *sketch) quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := 1.0 // latencies are ≥ 1 cycle, so bucket 0 starts at 1
			if i > 0 {
				lo = sketchUpper(i - 1)
			}
			hi := sketchUpper(i)
			frac := float64(rank-seen) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return sketchUpper(sketchBuckets - 1)
}

func (s *sketch) reset() {
	s.counts = [sketchBuckets]int64{}
	s.total = 0
}

// Detector thresholds; see DESIGN.md for how they were chosen.
const (
	// stableWindows is how many consecutive windows the accepted-throughput
	// mean must stay within stabilityTol of its predecessor before the run
	// is declared steady (warmup over).
	stableWindows = 3
	// stabilityTol is the relative window-to-window accepted-rate change
	// tolerated inside a stable run.
	stabilityTol = 0.05
	// trackingRatio flags a window as saturating when its ejected flits
	// fall below trackingRatio × injected flits — ejection has stopped
	// tracking injection and buffers are filling.
	trackingRatio = 0.9
	// kneeFactor flags a window as saturating when its p50 latency exceeds
	// kneeFactor × the run's minimum windowed p50 (the run's own zero-load
	// proxy: the earliest, lightest windows).
	kneeFactor = 3.0
	// satWindows is how many consecutive saturating windows latch the
	// saturated verdict.
	satWindows = 2
	// minWindowFlits ignores near-idle windows (ramp-in, drain) in both
	// detectors.
	minWindowFlits = 64
)

// detector runs the two online verdicts over the flushed window stream.
type detector struct {
	prevAccepted float64
	havePrev     bool
	stableRun    int
	steady       bool
	warmupCycles int64

	baseP50     float64 // min non-idle windowed p50 so far (zero-load proxy)
	satRun      int
	saturated   bool
	saturatedAt int64
}

func (d *detector) observe(w Window) {
	if w.InjectedFlits+w.EjectedFlits < minWindowFlits {
		// Idle window (ramp-in or drain): break any in-progress runs but
		// don't let zero-traffic windows fake stability or saturation.
		d.stableRun = 0
		d.satRun = 0
		return
	}
	if w.LatCount > 0 && (d.baseP50 == 0 || w.LatP50 < d.baseP50) {
		d.baseP50 = w.LatP50
	}
	if !d.steady {
		if d.havePrev && d.prevAccepted > 0 &&
			math.Abs(w.Accepted-d.prevAccepted) <= stabilityTol*d.prevAccepted {
			d.stableRun++
		} else {
			d.stableRun = 0
		}
		if d.stableRun >= stableWindows {
			d.steady = true
			d.warmupCycles = w.End
		}
	}
	d.prevAccepted = w.Accepted
	d.havePrev = true

	tracking := float64(w.EjectedFlits) < trackingRatio*float64(w.InjectedFlits)
	knee := w.LatCount > 0 && d.baseP50 > 0 && w.LatP50 >= kneeFactor*d.baseP50
	if tracking || knee {
		d.satRun++
	} else {
		d.satRun = 0
	}
	if !d.saturated && d.satRun >= satWindows {
		d.saturated = true
		d.saturatedAt = w.End
	}
}

// Series is one network's windowed time-series: a bounded preallocated ring
// of Windows, the current window's accumulators, and the online detectors.
// The simulation loop drives it through ObserveLatency / Occupancy / Flush;
// none of the three allocates.
type Series struct {
	// Name, Nodes, and ClockGHz identify the network (its config name, node
	// count, and clock domain); WindowCycles is the flush stride.
	Name         string
	Nodes        int
	ClockGHz     float64
	WindowCycles int64
	SampleEvery  int64

	ring    []Window
	head    int // next slot to write
	count   int
	dropped int

	sk         sketch
	winStart   int64
	occSum     int64 // total buffered flits summed over samples
	occSamples int64
	occMax     int64

	det detector
}

// NewSeries builds a series for one network, applying Options.WithDefaults
// (callers normally go through sim.System.AttachTelemetry).
func NewSeries(name string, nodes int, clockGHz float64, opts Options) *Series {
	opts = opts.WithDefaults()
	return &Series{
		Name:         name,
		Nodes:        nodes,
		ClockGHz:     clockGHz,
		WindowCycles: opts.WindowCycles,
		SampleEvery:  opts.SampleEvery,
		ring:         make([]Window, opts.MaxWindows),
	}
}

// ObserveLatency feeds one delivered packet's end-to-end latency (cycles)
// into the current window's sketch. Must not allocate.
func (s *Series) ObserveLatency(cycles int64) { s.sk.observe(cycles) }

// Occupancy records one occupancy sample: the total buffered flits across
// all routers and the peak single-router value. Must not allocate.
func (s *Series) Occupancy(totalFlits, maxFlits int64) {
	s.occSum += totalFlits
	s.occSamples++
	if maxFlits > s.occMax {
		s.occMax = maxFlits
	}
}

// Flush closes the current window at cycle end (exclusive) with the
// window's injected/ejected flit deltas, stores it in the ring, feeds the
// detectors, and resets the accumulators. Must not allocate.
func (s *Series) Flush(end, injectedFlits, ejectedFlits int64) {
	w := Window{
		Start:         s.winStart,
		End:           end,
		InjectedFlits: injectedFlits,
		EjectedFlits:  ejectedFlits,
		LatCount:      s.sk.total,
		LatP50:        s.sk.quantile(0.50),
		LatP95:        s.sk.quantile(0.95),
		LatP99:        s.sk.quantile(0.99),
		OccMax:        s.occMax,
	}
	if cycles := end - s.winStart; cycles > 0 && s.Nodes > 0 {
		norm := float64(cycles) * float64(s.Nodes)
		w.Offered = float64(injectedFlits) / norm
		w.Accepted = float64(ejectedFlits) / norm
	}
	if s.occSamples > 0 && s.Nodes > 0 {
		w.OccMean = float64(s.occSum) / float64(s.occSamples) / float64(s.Nodes)
	}

	s.ring[s.head] = w
	s.head = (s.head + 1) % len(s.ring)
	if s.count < len(s.ring) {
		s.count++
	} else {
		s.dropped++
	}
	s.det.observe(w)

	s.winStart = end
	s.sk.reset()
	s.occSum, s.occSamples, s.occMax = 0, 0, 0
}

// Windows returns the retained windows in time order (oldest first).
// Allocates; call after the run, not from the hot loop.
func (s *Series) Windows() []Window {
	out := make([]Window, 0, s.count)
	start := s.head - s.count
	for i := 0; i < s.count; i++ {
		out = append(out, s.ring[(start+i+len(s.ring))%len(s.ring)])
	}
	return out
}

// Dropped returns how many windows rolled off the ring.
func (s *Series) Dropped() int { return s.dropped }

// Steady reports whether the warmup detector has declared the run steady,
// and at which cycle (0 when not steady).
func (s *Series) Steady() (bool, int64) { return s.det.steady, s.det.warmupCycles }

// Saturated reports whether the saturation detector has latched, and at
// which cycle (0 when not saturated).
func (s *Series) Saturated() (bool, int64) { return s.det.saturated, s.det.saturatedAt }

// NetworkSeries is the wire form of one network's series.
type NetworkSeries struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	ClockGHz     float64 `json:"clockGhz"`
	WindowCycles int64   `json:"windowCycles"`
	// DroppedWindows counts windows that rolled off the bounded ring before
	// the snapshot (0 = Windows is the complete run).
	DroppedWindows int      `json:"droppedWindows,omitempty"`
	Windows        []Window `json:"windows"`

	Steady       bool  `json:"steady"`
	WarmupCycles int64 `json:"warmupCycles,omitempty"`

	Saturated        bool  `json:"saturated"`
	SaturatedAtCycle int64 `json:"saturatedAtCycle,omitempty"`
}

// Snapshot renders the series for export. Allocates; post-run only.
func (s *Series) Snapshot() NetworkSeries {
	ns := NetworkSeries{
		Name:           s.Name,
		Nodes:          s.Nodes,
		ClockGHz:       s.ClockGHz,
		WindowCycles:   s.WindowCycles,
		DroppedWindows: s.dropped,
		Windows:        s.Windows(),
	}
	ns.Steady, ns.WarmupCycles = s.Steady()
	ns.Saturated, ns.SaturatedAtCycle = s.Saturated()
	return ns
}

// Capture groups one run's per-network series, in the simulator's stable
// network order.
type Capture struct {
	Scheme    string
	Benchmark string
	Series    []*Series
}

// Saturated reports whether any network's saturation detector latched, and
// the earliest latch cycle.
func (c *Capture) Saturated() (bool, int64) {
	sat, at := false, int64(0)
	for _, s := range c.Series {
		if ok, cyc := s.Saturated(); ok {
			if !sat || cyc < at {
				at = cyc
			}
			sat = true
		}
	}
	return sat, at
}

// WarmupCycles returns the slowest network's warmup (the run is steady only
// once every network is), and whether every network converged.
func (c *Capture) WarmupCycles() (int64, bool) {
	var warmup int64
	steady := len(c.Series) > 0
	for _, s := range c.Series {
		ok, cyc := s.Steady()
		if !ok {
			steady = false
			continue
		}
		if cyc > warmup {
			warmup = cyc
		}
	}
	return warmup, steady
}

// Summary renders the capture as its wire form.
func (c *Capture) Summary() RunSummary {
	sum := RunSummary{Scheme: c.Scheme, Benchmark: c.Benchmark}
	sum.Saturated, sum.SaturatedAtCycle = c.Saturated()
	sum.WarmupCycles, sum.Steady = c.WarmupCycles()
	for _, s := range c.Series {
		sum.Networks = append(sum.Networks, s.Snapshot())
	}
	return sum
}

// RunSummary is the wire form of one run's telemetry: the per-network
// windowed series plus the run-level detector verdicts. It is what rides
// in evaluation documents ("telemetry"), CompleteRequests, and SSE frames.
type RunSummary struct {
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`

	Saturated        bool  `json:"saturated"`
	SaturatedAtCycle int64 `json:"saturatedAtCycle,omitempty"`
	Steady           bool  `json:"steady"`
	WarmupCycles     int64 `json:"warmupCycles,omitempty"`

	Networks []NetworkSeries `json:"networks"`
}

// csvHeader is the flattened per-window CSV schema shared by WriteCSV and
// `equinox trace -telemetry-csv`.
const csvHeader = "scheme,benchmark,network,window,start,end,injected_flits,ejected_flits,offered,accepted,lat_p50,lat_p95,lat_p99,lat_count,occ_mean,occ_max,saturated\n"

// WriteCSV flattens one or more run summaries into per-window CSV rows for
// plotting: one row per (run, network, window).
func WriteCSV(w io.Writer, sums []RunSummary) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	for _, sum := range sums {
		for _, ns := range sum.Networks {
			for i, win := range ns.Windows {
				row := fmt.Sprintf("%s,%s,%s,%d,%d,%d,%d,%d,%s,%s,%s,%s,%s,%d,%s,%d,%t\n",
					sum.Scheme, sum.Benchmark, ns.Name, i+ns.DroppedWindows,
					win.Start, win.End, win.InjectedFlits, win.EjectedFlits,
					strconv.FormatFloat(win.Offered, 'f', 6, 64),
					strconv.FormatFloat(win.Accepted, 'f', 6, 64),
					strconv.FormatFloat(win.LatP50, 'f', 2, 64),
					strconv.FormatFloat(win.LatP95, 'f', 2, 64),
					strconv.FormatFloat(win.LatP99, 'f', 2, 64),
					win.LatCount,
					strconv.FormatFloat(win.OccMean, 'f', 4, 64),
					win.OccMax, sum.Saturated)
				if _, err := io.WriteString(w, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
