package equinox

import (
	"fmt"
	"io"
	"strings"

	"equinox/internal/sim"
)

// WriteReport renders the evaluation as a markdown document mirroring the
// paper's §6: Figure 9(a/b/c) summaries, the Figure 10 latency breakdown,
// Figure 11 areas, and headline reductions as numbered notes.
func (ev *Evaluation) WriteReport(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# EquiNox evaluation report\n\n" +
		"All values regenerated by this repository's simulator; " +
		"normalizations follow the paper (SingleBase = 1.0, geometric " +
		"mean over the benchmark suite).\n\n")

	exec := ev.ExecTimeSummary(sim.SingleBase)
	energy := ev.EnergySummary(sim.SingleBase)
	edp := ev.EDPSummary(sim.SingleBase)
	areas := ev.AreaSummary()
	fig9 := Table{
		Title:  "Figure 9: execution time, energy, EDP (normalized)",
		Header: []string{"scheme", "exec", "energy", "EDP"},
	}
	fig11 := Table{Title: "Figure 11: NoC area (mm²)", Header: []string{"scheme", "area"}}
	for _, s := range ev.Schemes {
		fig9.Rows = append(fig9.Rows, []string{s.String(),
			fmt.Sprintf("%.3f", exec[s]), fmt.Sprintf("%.3f", energy[s]), fmt.Sprintf("%.3f", edp[s])})
		fig11.Rows = append(fig11.Rows, []string{s.String(), fmt.Sprintf("%.3f", areas[s])})
	}
	fig10 := ev.Figure10()
	fig10.Title = "Figure 10: packet latency breakdown (vs SingleBase total)"
	for _, t := range []Table{fig9, fig10, fig11} {
		b.WriteString(t.Markdown())
	}

	// Headlines.
	has := func(k sim.SchemeKind) bool {
		_, ok := ev.Results[k]
		return ok
	}
	var notes []string
	if has(sim.EquiNox) && has(sim.SingleBase) {
		notes = append(notes,
			"EquiNox vs SingleBase execution time: "+reduction(exec[sim.EquiNox], exec[sim.SingleBase])+
				" (paper: −47.7%)")
	}
	if has(sim.EquiNox) && has(sim.SeparateBase) {
		notes = append(notes,
			"EquiNox vs SeparateBase execution time: "+reduction(exec[sim.EquiNox], exec[sim.SeparateBase])+
				" (paper: −23.5%)",
			"EquiNox vs SeparateBase EDP: "+reduction(edp[sim.EquiNox], edp[sim.SeparateBase])+
				" (paper: −32.8%)",
			"EquiNox area overhead vs SeparateBase: "+reduction(areas[sim.EquiNox], areas[sim.SeparateBase])+
				" (paper: +4.6%)")
	}
	if has(sim.SeparateBase) {
		notes = append(notes,
			fmt.Sprintf("Reply share of NoC bits (SeparateBase): %.1f%% (paper: 72.7%%)",
				ev.ReplyBitShare(sim.SeparateBase)*100))
	}
	if len(notes) > 0 {
		b.WriteString("## Notes\n\n")
		for i, n := range notes {
			fmt.Fprintf(&b, "%d. %s\n", i+1, n)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// reduction formats a as a signed percentage change from b.
func reduction(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (a/b-1)*100)
}
