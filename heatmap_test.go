package equinox

import (
	"slices"
	"strings"
	"testing"

	"equinox/internal/sim"
	"equinox/internal/viz"
	"equinox/internal/workloads"
)

// probedRatio runs one scheme/benchmark with occupancy probes on every
// network and returns the combined heat map and its max/mean concentration.
func probedRatio(t *testing.T, kind sim.SchemeKind, bench string) ([]float64, float64) {
	t.Helper()
	cfg := sim.DefaultConfig(kind)
	cfg.InstructionsPerPE = 300
	if kind == sim.EquiNox {
		d, err := DesignForMesh(cfg.Width, cfg.Height, cfg.NumCBs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CBOverride = d.CBs
		cfg.EIRGroups = d.Groups
	}
	prof, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	probes := sys.AttachProbes(16)
	if _, err := sys.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		if slices.Max(p.MeanOccupancy()) == 0 {
			t.Fatalf("probe %d sampled no occupancy", i)
		}
	}
	heat := sim.CombineMeanOccupancy(probes)
	return heat, sim.MaxMeanRatio(heat)
}

// TestHeatmapDispersal reproduces the paper's Figure 4 observation with the
// occupancy probes: the single-network baseline concentrates buffered and
// injection-queued flits at the CB-adjacent routers, while EquiNox's EIR
// injection spreads the same reply traffic, so the baseline's max/mean
// occupancy ratio is strictly higher.
func TestHeatmapDispersal(t *testing.T) {
	for _, bench := range []string{"kmeans", "bfs"} {
		sbHeat, sbRatio := probedRatio(t, sim.SingleBase, bench)
		eqHeat, eqRatio := probedRatio(t, sim.EquiNox, bench)
		if sbRatio <= eqRatio {
			t.Errorf("%s: SingleBase max/mean %.2f not above EquiNox %.2f\n%s%s",
				bench, sbRatio, eqRatio,
				viz.ASCIIHeatmap("SingleBase", 8, 8, sbHeat),
				viz.ASCIIHeatmap("EquiNox", 8, 8, eqHeat))
		}
		if sbRatio <= 1 || eqRatio <= 1 {
			t.Errorf("%s: degenerate ratios %.2f / %.2f", bench, sbRatio, eqRatio)
		}
	}
}

// TestASCIIHeatmapShape checks the renderer's grid dimensions and shading.
func TestASCIIHeatmapShape(t *testing.T) {
	heat := make([]float64, 12)
	heat[5] = 4 // (1,1) in a 4x3 grid
	s := viz.ASCIIHeatmap("demo", 4, 3, heat)
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want title + 3 rows:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "demo") || !strings.Contains(lines[0], "max 4.00") {
		t.Errorf("title line %q", lines[0])
	}
	for i, want := range []string{"    ", " @  ", "    "} {
		if lines[i+1] != want {
			t.Errorf("row %d = %q, want %q", i, lines[i+1], want)
		}
	}
}
