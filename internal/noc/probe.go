package noc

import (
	"fmt"
	"io"
	"strconv"

	"equinox/internal/geom"
)

// meshLinks is the number of directed mesh links sampled per router (one per
// non-local direction: East, West, South, North).
const meshLinks = int(geom.NumDirections) - 1

// Probe samples a network's buffer and link state on an OnCycle stride. All
// state is preallocated at attach time and updated in place, so an attached
// probe adds zero steady-state allocations to Network.Step (pinned by
// TestStepDoesNotAllocate).
type Probe struct {
	w, h    int
	samples int64

	// Per-router occupancy (flits buffered across all input VCs, plus NI
	// injection backlog attributed to the router whose port the flits are
	// waiting to enter), indexed by router ID.
	occSum []int64
	occMax []int64
	// scratch holds one sample's per-router totals while NI backlogs are
	// being added; reused across samples.
	scratch []int64

	// Per-directed-link in-flight flit counts, indexed
	// [router*meshLinks + direction-1] (East, West, South, North).
	linkSum []int64
}

// AttachProbe builds a probe sized for this network and starts sampling
// every `every` cycles.
func (n *Network) AttachProbe(every int64) *Probe {
	if every < 1 {
		every = 1
	}
	p := &Probe{
		w:       n.Cfg.Width,
		h:       n.Cfg.Height,
		occSum:  make([]int64, len(n.Routers)),
		occMax:  make([]int64, len(n.Routers)),
		scratch: make([]int64, len(n.Routers)),
		linkSum: make([]int64, len(n.Routers)*meshLinks),
	}
	n.OnCycle(every, func(int64) { p.sample(n) })
	return p
}

// sample reads the live occupancy counters; an OnCycle hook, so it runs at the
// end of Step on sampling cycles. Must not allocate.
//
// Occupancy counts both flits already buffered in a router's input VCs and
// the NI injection backlog waiting to enter that router. Without the NI
// term the comparison the probe exists for would be biased: EquiNox's NI
// streams whole packets into EIR-side input ports (visible as router
// occupancy), while a baseline CB's backlog piles up inside its NI queue —
// invisible to the routers even though it is exactly the paper's Figure 4
// hot spot.
func (p *Probe) sample(n *Network) {
	p.samples++
	n.occupancy(p.scratch)
	// The arrival list holds the flits in flight on links at the end of a
	// cycle.
	for i := range n.arrivals {
		from, port := n.linkSource(&n.arrivals[i])
		p.linkSum[from*meshLinks+port-1]++
	}
	for i, occ := range p.scratch {
		p.occSum[i] += occ
		if occ > p.occMax[i] {
			p.occMax[i] = occ
		}
	}
}

// Samples returns how many sampling cycles have elapsed.
func (p *Probe) Samples() int64 { return p.samples }

// MeanOccupancy returns the per-router mean occupancy in flits (input
// buffers plus NI injection backlog).
func (p *Probe) MeanOccupancy() []float64 {
	out := make([]float64, len(p.occSum))
	if p.samples == 0 {
		return out
	}
	for i, s := range p.occSum {
		out[i] = float64(s) / float64(p.samples)
	}
	return out
}

// MaxOccupancy returns the per-router peak sampled occupancy in flits.
func (p *Probe) MaxOccupancy() []int64 {
	out := make([]int64, len(p.occMax))
	copy(out, p.occMax)
	return out
}

// MeanLinkLoad returns the mean in-flight flit count per directed mesh link,
// indexed [router*4 + direction-1] (East, West, South, North); entries for
// boundary directions without a link stay zero.
func (p *Probe) MeanLinkLoad() []float64 {
	out := make([]float64, len(p.linkSum))
	if p.samples == 0 {
		return out
	}
	for i, s := range p.linkSum {
		out[i] = float64(s) / float64(p.samples)
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
