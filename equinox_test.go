package equinox

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"equinox/internal/core"
	"equinox/internal/sim"
)

func TestBenchmarksSuite(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 29 {
		t.Fatalf("suite has %d benchmarks, want 29", len(bs))
	}
}

func TestDesignAPI(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.Search = core.SearchGreedyTwoHop
	d, err := Design(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Summarize()
	if !r.AllTwoHop || r.Crossings != 0 || r.RDLLayers != 1 {
		t.Errorf("design violates Figure 7 invariants: %+v", r)
	}
}

// TestRunBenchmarkUnknownName: a one-cell run of a benchmark outside the
// suite is refused before any simulation starts.
func TestRunBenchmarkUnknownName(t *testing.T) {
	_, err := RunEvaluationContext(context.Background(), EvalConfig{
		Schemes:    []sim.SchemeKind{sim.SingleBase},
		Benchmarks: []string{"nope"},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown benchmark accepted (err %v)", err)
	}
}

// TestOneCellEvaluation: a single run is a one-scheme, one-benchmark sweep.
func TestOneCellEvaluation(t *testing.T) {
	ev, err := RunEvaluationContext(context.Background(), EvalConfig{
		Schemes:           []sim.SchemeKind{sim.SingleBase},
		Benchmarks:        []string{"hotspot"},
		InstructionsPerPE: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := ev.Result(sim.SingleBase, "hotspot")
	if !ok || res.ExecNS <= 0 || res.IPC <= 0 {
		t.Errorf("bad result: %+v (present %v)", res, ok)
	}
}

var (
	miniOnce sync.Once
	miniEv   *Evaluation
	miniErr  error
)

// miniEval runs a 3-benchmark sweep once and shares it with the shape
// tests, which only read it.
func miniEval(t *testing.T) *Evaluation {
	t.Helper()
	miniOnce.Do(func() {
		cfg := DefaultEvalConfig()
		cfg.Benchmarks = []string{"kmeans", "hotspot", "monteCarlo"}
		// Large enough that the reply-injection bottleneck saturates — the
		// regime the paper evaluates in; tiny runs stay latency-dominated.
		cfg.InstructionsPerPE = 600
		miniEv, miniErr = RunEvaluationContext(context.Background(), cfg)
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	for _, e := range miniEv.Errors {
		t.Fatalf("run error: %v", e)
	}
	return miniEv
}

func TestEvaluationShapes(t *testing.T) {
	ev := miniEval(t)

	exec := ev.ExecTimeSummary(sim.SingleBase)
	if exec[sim.SingleBase] != 1.0 {
		t.Errorf("baseline not 1.0: %f", exec[sim.SingleBase])
	}
	// Paper Figure 9(a) shape: EquiNox is the fastest scheme and clearly
	// below both baselines.
	for _, s := range sim.AllSchemes() {
		if s == sim.EquiNox {
			continue
		}
		if exec[sim.EquiNox] >= exec[s] {
			t.Errorf("EquiNox exec %f not below %v %f", exec[sim.EquiNox], s, exec[s])
		}
	}
	if exec[sim.EquiNox] > 0.85 {
		t.Errorf("EquiNox exec reduction too small: %f vs paper's ~0.52", exec[sim.EquiNox])
	}
	// Separate network beats single network baseline.
	if exec[sim.SeparateBase] >= 1.0 {
		t.Errorf("SeparateBase %f not below SingleBase", exec[sim.SeparateBase])
	}

	// EDP: EquiNox lowest (Figure 9(c)).
	edp := ev.EDPSummary(sim.SingleBase)
	for _, s := range sim.AllSchemes() {
		if s != sim.EquiNox && edp[sim.EquiNox] >= edp[s] {
			t.Errorf("EquiNox EDP %f not below %v %f", edp[sim.EquiNox], s, edp[s])
		}
	}

	// Area: Figure 11's ordering.
	areas := ev.AreaSummary()
	if areas[sim.SingleBase] >= areas[sim.SeparateBase] {
		t.Error("single-network area not below separate")
	}
	overhead := areas[sim.EquiNox]/areas[sim.SeparateBase] - 1
	if overhead <= 0 || overhead > 0.15 {
		t.Errorf("EquiNox area overhead %.1f%% not in (0, 15%%] (paper: 4.6%%)", overhead*100)
	}

	// Reply share near the paper's 72.7%.
	if share := ev.ReplyBitShare(sim.SeparateBase); share < 0.6 || share > 0.9 {
		t.Errorf("reply bit share %f implausible", share)
	}
}

func TestTablesRender(t *testing.T) {
	ev := miniEval(t)
	for _, tab := range []Table{
		ev.Figure9a(), ev.Figure9b(), ev.Figure9c(),
		ev.Figure10(), ev.Figure11(),
		Table1(ev.Config), UbumpComparison(ev),
	} {
		s := tab.String()
		if !strings.Contains(s, "==") || len(s) < 40 {
			t.Errorf("table render too small:\n%s", s)
		}
	}
	nq, err := NQueenScores(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(nq.Rows) != 5 {
		t.Errorf("placement score table rows = %d", len(nq.Rows))
	}
	fig4, err := Figure4(8, 8, 8, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig4, "NQueen") {
		t.Error("Figure 4 output missing N-Queen panel")
	}
}

func TestUbumpComparisonNumbers(t *testing.T) {
	d, err := DesignForMesh(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluation{Config: DefaultEvalConfig(), Design: d}
	tab := UbumpComparison(ev)
	s := tab.String()
	if !strings.Contains(s, "32768") {
		t.Errorf("CMesh µbump count missing:\n%s", s)
	}
	if !strings.Contains(s, "6144") {
		t.Errorf("EquiNox µbump count missing:\n%s", s)
	}
	if !strings.Contains(s, "81.25%") {
		t.Errorf("81.25%% reduction missing:\n%s", s)
	}
}

// TestEvaluationReport pins WriteReport's markdown byte for byte on the
// shared mini sweep. Regenerate with GOLDEN_UPDATE=1 go test -run
// TestEvaluationReport .
func TestEvaluationReport(t *testing.T) {
	ev := miniEval(t)
	var buf bytes.Buffer
	if err := ev.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report-mini.md"
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}

func TestEnergyBreakdownTable(t *testing.T) {
	ev := miniEval(t)
	tab := ev.EnergyBreakdownTable()
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "interposer") || !strings.Contains(s, "EquiNox") {
		t.Errorf("breakdown malformed:\n%s", s)
	}
	// Leakage is a proper, non-zero part of every scheme's total energy.
	for _, row := range tab.Rows {
		leak, _ := strconv.ParseFloat(row[6], 64)
		total, _ := strconv.ParseFloat(row[7], 64)
		if leak <= 0 || leak >= total {
			t.Errorf("%s leakage %s not in (0, total %s)", row[0], row[6], row[7])
		}
	}
}
