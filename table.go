package equinox

import (
	"fmt"
	"math"
	"strings"

	"equinox/internal/interposer"
	"equinox/internal/placement"
	"equinox/internal/sim"
	"equinox/internal/stats"
	"equinox/internal/viz"
)

// cmeshBumpPlan builds the Interposer-CMesh wiring plan used for the §6.6
// µbump accounting (256-bit spokes, one bump endpoint per wire).
func cmeshBumpPlan(w, h int) *interposer.Plan {
	if w == 0 {
		w, h = 8, 8
	}
	return interposer.CMeshPlan(w, h, 256)
}

// Table is a printable result table (one per paper table/figure).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the table as a level-2 markdown section: the title as a
// heading, then a pipe table with every `|` in the text escaped.
func (t Table) Markdown() string {
	esc := strings.NewReplacer("|", `\|`)
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", esc.Replace(t.Title))
	line := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			fmt.Fprintf(&b, " %s |", esc.Replace(c))
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	return b.String()
}

// figure9 builds a per-benchmark normalized table for one metric.
func (ev *Evaluation) figure9(title string, m metric, base sim.SchemeKind) Table {
	t := Table{Title: title, Header: []string{"benchmark"}}
	for _, s := range ev.Schemes {
		t.Header = append(t.Header, s.String())
	}
	per := ev.normalizedPerBenchmark(m, base)
	for i, b := range ev.Benches {
		row := []string{b}
		for _, s := range ev.Schemes {
			if v := per[s][i]; math.IsNaN(v) {
				row = append(row, "-") // run failed; excluded from the geomean
			} else {
				row = append(row, fmt.Sprintf("%.3f", v))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	avg := ev.GeoMeanNormalized(m, base)
	row := []string{"AVG(geomean)"}
	for _, s := range ev.Schemes {
		row = append(row, fmt.Sprintf("%.3f", avg[s]))
	}
	t.Rows = append(t.Rows, row)
	return t
}

// Figure9a regenerates Figure 9(a): execution time normalized to SingleBase.
func (ev *Evaluation) Figure9a() Table {
	return ev.figure9("Figure 9(a): Execution time (normalized to SingleBase)", execTime, sim.SingleBase)
}

// Figure9b regenerates Figure 9(b): NoC energy normalized to SingleBase.
func (ev *Evaluation) Figure9b() Table {
	return ev.figure9("Figure 9(b): NoC energy (normalized to SingleBase)", energy, sim.SingleBase)
}

// Figure9c regenerates Figure 9(c): EDP normalized to SingleBase.
func (ev *Evaluation) Figure9c() Table {
	return ev.figure9("Figure 9(c): Energy-delay product (normalized to SingleBase)", edp, sim.SingleBase)
}

// Figure10 regenerates Figure 10: packet latency in ns, broken into
// request/reply × queuing/non-queuing, normalized to SingleBase's total.
func (ev *Evaluation) Figure10() Table {
	t := Table{
		Title:  "Figure 10: Normalized packet latency breakdown (vs SingleBase total)",
		Header: []string{"scheme", "reqQueue", "reqNet", "repQueue", "repNet", "total"},
	}
	for _, s := range ev.Schemes {
		rq, rn, pq, pn := ev.latencyParts(s, sim.SingleBase)
		t.Rows = append(t.Rows, []string{
			s.String(),
			fmt.Sprintf("%.3f", rq), fmt.Sprintf("%.3f", rn),
			fmt.Sprintf("%.3f", pq), fmt.Sprintf("%.3f", pn),
			fmt.Sprintf("%.3f", rq+rn+pq+pn),
		})
	}
	return t
}

// Figure11 regenerates Figure 11: NoC area per scheme.
func (ev *Evaluation) Figure11() Table {
	t := Table{Title: "Figure 11: NoC area", Header: []string{"scheme", "area (mm²)", "vs SeparateBase"}}
	areas := ev.AreaSummary()
	base := areas[sim.SeparateBase]
	for _, s := range ev.Schemes {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%+.1f%%", (areas[s]/base-1)*100)
		}
		t.Rows = append(t.Rows, []string{s.String(), fmt.Sprintf("%.3f", areas[s]), rel})
	}
	return t
}

// Table1 echoes the simulated configuration (the paper's Table 1).
func Table1(cfg EvalConfig) Table {
	sc := sim.DefaultConfig(sim.SeparateBase)
	if cfg.Width > 0 {
		sc.Width, sc.Height = cfg.Width, cfg.Height
	}
	if cfg.NumCBs > 0 {
		sc.NumCBs = cfg.NumCBs
	}
	t := Table{Title: "Table 1: Key parameters in simulation", Header: []string{"parameter", "value"}}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("Network size", fmt.Sprintf("%dx%d (also 12x12, 16x16 for scalability)", sc.Width, sc.Height))
	add("Network routing", "Minimum adaptive (XY escape VC)")
	add("Virtual channel", "2/port, 1 pkt/VC")
	add("Allocator", "Separable input first")
	add("PE frequency", fmt.Sprintf("%.0f MHz", sc.CoreClockGHz*1000))
	add("L1 cache / PE", fmt.Sprintf("%d KB", sc.PE.L1Bytes/1024))
	add("L2 cache (LLC) per bank", fmt.Sprintf("%d MB", sc.CB.L2Bytes/(1024*1024)))
	add("# of LLC banks", fmt.Sprintf("%d", sc.NumCBs))
	add("HBM bandwidth", fmt.Sprintf("%.0f GB/s per stack",
		sc.CB.HBM.PeakBytesPerCycle()*sc.CoreClockGHz))
	add("Memory controllers", fmt.Sprintf("%d, FR-FCFS", sc.NumCBs))
	return t
}

// Figure4 runs the placement heat-map experiment and renders the maps with
// their variances (paper Figure 4 + the N-Queen panel of Figure 5).
func Figure4(w, h, numCBs, cycles int, seed int64) (string, error) {
	rs, err := stats.PlacementHeatmaps(w, h, numCBs, cycles, seed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Figure 4: Heat map of average router traversal cycles ==\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "%s (variance %.2f)\n%s\n", r.Kind, r.Variance, viz.ASCIIGrid(r.Width, r.Height, r.Heat))
	}
	return b.String(), nil
}

// UbumpComparison regenerates §6.6's µbump accounting.
func UbumpComparison(ev *Evaluation) Table {
	t := Table{
		Title:  "Section 6.6: µbump comparison",
		Header: []string{"scheme", "uni-dir links", "bits/link", "µbumps", "area (mm²)"},
	}
	cm := cmeshBumpPlan(ev.Config.Width, ev.Config.Height)
	cr := cm.Summarize()
	t.Rows = append(t.Rows, []string{"Interposer-CMesh",
		fmt.Sprintf("%d", cr.Wires), "256", fmt.Sprintf("%d", cr.Bumps),
		fmt.Sprintf("%.2f", cr.BumpAreaMM2)})
	if ev.Design != nil {
		er := ev.Design.Plan.Summarize()
		t.Rows = append(t.Rows, []string{"EquiNox",
			fmt.Sprintf("%d", er.Wires), "128", fmt.Sprintf("%d", er.Bumps),
			fmt.Sprintf("%.2f", er.BumpAreaMM2)})
		if cr.Bumps > 0 {
			red := (1 - float64(er.Bumps)/float64(cr.Bumps)) * 100
			t.Rows = append(t.Rows, []string{"reduction", "", "", fmt.Sprintf("%.2f%%", red), ""})
		}
	}
	return t
}

// NQueenScores lists the hot-zone penalty of every placement strategy
// (Figure 5's scoring policy applied across Figure 4's placements).
func NQueenScores(w, h, numCBs int) (Table, error) {
	t := Table{Title: "Placement hot-zone penalty scores", Header: []string{"placement", "score"}}
	for _, k := range placement.Kinds() {
		pl, err := placement.New(k, w, h, numCBs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{k.String(), fmt.Sprintf("%d", placement.Score(pl))})
	}
	return t, nil
}
