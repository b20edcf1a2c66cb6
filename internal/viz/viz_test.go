package viz

import (
	"encoding/xml"
	"strings"
	"testing"

	"equinox/internal/core"
	"equinox/internal/placement"
	"equinox/internal/stats"
)

func testDesign(t *testing.T) *core.Design {
	t.Helper()
	cfg := core.DefaultDesignConfig()
	cfg.Search = core.SearchGreedyTwoHop
	d, err := core.BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wellFormed checks the output parses as XML.
func wellFormed(t *testing.T, s string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(s))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v\n%s", err, s[:min(400, len(s))])
		}
	}
}

func TestDesignSVG(t *testing.T) {
	d := testDesign(t)
	s := DesignSVG(d)
	wellFormed(t, s)
	if !strings.Contains(s, "CB0") || !strings.Contains(s, "CB7") {
		t.Error("CB labels missing")
	}
	if strings.Count(s, "<line") != d.EIRCount() {
		t.Errorf("link lines %d != EIR count %d", strings.Count(s, "<line"), d.EIRCount())
	}
}

func TestHeatmapSVG(t *testing.T) {
	r, err := stats.PlacementHeatmap(placement.Top, 8, 8, 8, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := HeatmapSVG(r)
	wellFormed(t, s)
	if !strings.Contains(s, "variance") {
		t.Error("variance caption missing")
	}
	if strings.Count(s, "<rect") < 64 {
		t.Error("tiles missing")
	}
}

// TestASCIIGrid checks a Figure 4 map's text rendering: one line of one
// shade per router for each row, the hottest router at full shade.
func TestASCIIGrid(t *testing.T) {
	r, err := stats.PlacementHeatmap(placement.Top, 8, 8, 8, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ASCIIGrid(r.Width, r.Height, r.Heat)
	rows := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(rows) != 8 || !strings.Contains(s, "@") {
		t.Fatalf("grid malformed:\n%s", s)
	}
	for _, row := range rows {
		if len(row) != 8 || strings.Trim(row, " .:-=+*#%@") != "" {
			t.Errorf("row %q: want 8 shades", row)
		}
	}
}

func TestHeatmapsSVG(t *testing.T) {
	rs, err := stats.PlacementHeatmaps(8, 8, 8, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := HeatmapsSVG(rs)
	wellFormed(t, s)
	for _, k := range placement.Kinds() {
		if !strings.Contains(s, k.String()) {
			t.Errorf("panel %v missing", k)
		}
	}
	if HeatmapsSVG(nil) == "" {
		t.Error("empty input should render an empty document")
	}
}

func TestHeatColourRamp(t *testing.T) {
	if heatColour(0, 10) != "#ffffff" {
		t.Errorf("zero heat should be white: %s", heatColour(0, 10))
	}
	if heatColour(10, 10) != "#ff0000" {
		t.Errorf("max heat should be red: %s", heatColour(10, 10))
	}
	if heatColour(5, 0) != "#ffffff" {
		t.Error("zero max should be white")
	}
	if heatColour(20, 10) != "#ff0000" {
		t.Error("overflow should clamp")
	}
}
