package stats

import (
	"math"
	"testing"

	"equinox/internal/placement"
)

func TestVariance(t *testing.T) {
	if v := Variance([]float64{2, 2, 2}); v != 0 {
		t.Errorf("constant variance = %f", v)
	}
	if v := Variance([]float64{1, 3}); v != 1 {
		t.Errorf("variance = %f, want 1", v)
	}
	if v := Variance(nil); v != 0 {
		t.Errorf("empty variance = %f", v)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %f, want 2", g)
	}
	if g := GeoMean([]float64{5}); math.Abs(g-5) > 1e-12 {
		t.Errorf("geomean single = %f", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("non-positive input should yield 0, got %f", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("empty geomean = %f", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("empty mean = %f", m)
	}
}

func TestPlacementHeatmapRuns(t *testing.T) {
	r, err := PlacementHeatmap(placement.Top, 8, 8, 8, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Heat) != 64 {
		t.Fatalf("heat entries = %d", len(r.Heat))
	}
	if r.Variance <= 0 {
		t.Error("no variance recorded under hot traffic")
	}
}

func TestFigure4VarianceOrdering(t *testing.T) {
	// The paper's Figure 4 ordering: N-Queen has the lowest variance; Top
	// (all CBs in one row) the highest; Diamond sits between.
	rs, err := PlacementHeatmaps(8, 8, 8, 2500, 7)
	if err != nil {
		t.Fatal(err)
	}
	v := map[placement.Kind]float64{}
	for _, r := range rs {
		v[r.Kind] = r.Variance
	}
	if v[placement.NQueen] >= v[placement.Top] {
		t.Errorf("N-Queen variance %.2f not below Top %.2f", v[placement.NQueen], v[placement.Top])
	}
	if v[placement.NQueen] > v[placement.Diamond]*1.05 {
		t.Errorf("N-Queen variance %.2f above Diamond %.2f", v[placement.NQueen], v[placement.Diamond])
	}
	if v[placement.Diamond] >= v[placement.Top] {
		t.Errorf("Diamond variance %.2f not below Top %.2f", v[placement.Diamond], v[placement.Top])
	}
}
