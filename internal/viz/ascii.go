package viz

import (
	"fmt"
	"strings"

	"equinox/internal/geom"
)

// ASCIIHeatmap draws a per-router value grid under a title line (see
// ASCIIGrid) — the terminal counterpart of HeatmapSVG. The title line
// carries the max and mean so two maps rendered at different scales stay
// comparable.
func ASCIIHeatmap(title string, w, h int, heat []float64) string {
	max, sum := 0.0, 0.0
	for _, v := range heat {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := 0.0
	if len(heat) > 0 {
		mean = sum / float64(len(heat))
	}
	return fmt.Sprintf("%s (max %.2f, mean %.2f)\n", title, max, mean) + ASCIIGrid(w, h, heat)
}

// ASCIIGrid draws a per-router value grid as ASCII shades (brightest =
// highest), one character per router and one line per row, row 0 at the
// top. heat is indexed by geom.Point.ID(w), i.e. y*w+x.
func ASCIIGrid(w, h int, heat []float64) string {
	shades := []byte(" .:-=+*#%@")
	max := 0.0
	for _, v := range heat {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := heat[geom.Pt(x, y).ID(w)]
			i := 0
			if max > 0 {
				i = int(v / max * float64(len(shades)-1))
			}
			b.WriteByte(shades[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
