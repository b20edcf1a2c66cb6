// Package stats provides the measurement harnesses and aggregation helpers
// behind the paper's figures: the Figure 4 placement heat-map experiment,
// variance, and arithmetic and geometric means across the benchmark suite.
package stats

import (
	"math"
	"math/rand"

	"equinox/internal/noc"
	"equinox/internal/placement"
)

// HeatResult is the outcome of a Figure 4 style experiment: per-router mean
// flit traversal cycles and their variance across routers.
type HeatResult struct {
	Kind     placement.Kind
	Width    int
	Height   int
	Heat     []float64
	Variance float64
}

// PlacementHeatmap drives few-to-many reply traffic (every CB streams read
// replies to random PEs) through one mesh reply network under the given CB
// placement and measures the per-router average traversal cycles — the
// paper's Figure 4 methodology.
func PlacementHeatmap(kind placement.Kind, w, h, numCBs, warmCycles int, seed int64) (HeatResult, error) {
	pl, err := placement.New(kind, w, h, numCBs)
	if err != nil {
		return HeatResult{}, err
	}
	cfg := noc.DefaultConfig("heat", w, h)
	cfg.CBs = pl.CBs
	n, err := noc.New(cfg)
	if err != nil {
		return HeatResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	isCB := map[int]bool{}
	for _, cb := range pl.CBs {
		isCB[cb.ID(w)] = true
	}
	for cycle := 0; cycle < warmCycles; cycle++ {
		for _, cb := range pl.CBs {
			dst := rng.Intn(w * h)
			if isCB[dst] {
				continue
			}
			p := &noc.Packet{Type: noc.ReadReply, Src: cb.ID(w), Dst: dst}
			n.TryInject(p, n.Now())
		}
		for node := 0; node < w*h; node++ {
			for n.PopDelivered(node) != nil {
			}
		}
		n.Step()
	}
	heat := n.HeatMap()
	return HeatResult{
		Kind:     kind,
		Width:    w,
		Height:   h,
		Heat:     heat,
		Variance: Variance(heat),
	}, nil
}

// PlacementHeatmaps runs the experiment for every Figure 4 placement.
func PlacementHeatmaps(w, h, numCBs, warmCycles int, seed int64) ([]HeatResult, error) {
	var out []HeatResult
	for _, k := range placement.Kinds() {
		r, err := PlacementHeatmap(k, w, h, numCBs, warmCycles, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values (the conventional
// aggregate for normalized execution times across a benchmark suite).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
