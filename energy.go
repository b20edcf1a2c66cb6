package equinox

import "fmt"

// EnergyBreakdownTable decomposes each scheme's NoC energy into its
// components (buffers, crossbars, arbiters, on-chip links, interposer
// links, leakage), summed over the benchmark suite — an extension figure
// that shows *where* EquiNox saves energy relative to the conventional
// separate-network schemes: shorter runtimes cut leakage, and the
// interposer links are cheaper per bit than extra mesh traversals.
func (ev *Evaluation) EnergyBreakdownTable() Table {
	t := Table{
		Title:  "Energy breakdown by component (pJ, suite total)",
		Header: []string{"scheme", "buffer", "xbar", "arb", "link", "interposer", "leakage", "total"},
	}
	for _, s := range ev.Schemes {
		var sum [7]float64
		for _, b := range ev.Benches {
			r, ok := ev.Result(s, b)
			if !ok {
				continue
			}
			e := r.Energy
			sum[0] += e.BufferPJ
			sum[1] += e.XbarPJ
			sum[2] += e.ArbPJ
			sum[3] += e.LinkPJ
			sum[4] += e.IntpLinkPJ
			sum[5] += e.LeakagePJ
			sum[6] += e.TotalPJ()
		}
		row := []string{s.String()}
		for _, v := range sum {
			row = append(row, fmt.Sprintf("%.3e", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
