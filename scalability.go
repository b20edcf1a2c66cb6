package equinox

import (
	"context"
	"fmt"

	"equinox/internal/sim"
)

// ScalabilityPoint is one mesh size of the Figure 12 study.
type ScalabilityPoint struct {
	Side        int
	BaseIPC     float64 // SeparateBase mean IPC
	EquiNoxIPC  float64
	Improvement float64 // EquiNoxIPC / BaseIPC
}

// ScalabilityStudy reproduces Figure 12: for each mesh side, run the same
// design flow (N-Queen + EIR selection), then compare EquiNox's mean IPC
// against SeparateBase over the given benchmarks. The paper reports the
// improvement growing with network size (1.23× → 1.31× → 1.30×). Each side
// is one two-scheme sweep under ctx; the first failed run fails the study.
func ScalabilityStudy(ctx context.Context, sides []int, benches []string, instrPerPE int, seed int64) ([]ScalabilityPoint, error) {
	if len(sides) == 0 || len(benches) == 0 {
		return nil, fmt.Errorf("equinox: empty scalability study")
	}
	var out []ScalabilityPoint
	for _, side := range sides {
		ev, err := RunEvaluationContext(ctx, EvalConfig{
			Width: side, Height: side, NumCBs: 8,
			Schemes:           []sim.SchemeKind{sim.SeparateBase, sim.EquiNox},
			Benchmarks:        benches,
			InstructionsPerPE: instrPerPE,
			Seed:              seed,
		})
		if err == nil && len(ev.Errors) > 0 {
			err = ev.Errors[0]
		}
		if err != nil {
			return nil, fmt.Errorf("%dx%d: %w", side, side, err)
		}
		ipc := ev.IPCSummary()
		out = append(out, ScalabilityPoint{
			Side:        side,
			BaseIPC:     ipc[sim.SeparateBase],
			EquiNoxIPC:  ipc[sim.EquiNox],
			Improvement: ipc[sim.EquiNox] / ipc[sim.SeparateBase],
		})
	}
	return out, nil
}

// Figure12 renders the study as a Table.
func Figure12(points []ScalabilityPoint) Table {
	t := Table{
		Title:  "Figure 12: Scalability (mean IPC improvement of EquiNox over SeparateBase)",
		Header: []string{"mesh", "SeparateBase IPC", "EquiNox IPC", "improvement"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", p.Side, p.Side),
			fmt.Sprintf("%.2f", p.BaseIPC),
			fmt.Sprintf("%.2f", p.EquiNoxIPC),
			fmt.Sprintf("%.2fx", p.Improvement),
		})
	}
	return t
}
