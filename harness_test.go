package equinox

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"equinox/internal/obs"
	"equinox/internal/obs/trace"
	"equinox/internal/sim"
)

// evalWithHole builds a two-scheme, two-benchmark evaluation where one run
// (EquiNox/bfs) failed and therefore has no entry — the state RunEvaluation
// leaves behind after a timeout.
func evalWithHole() *Evaluation {
	mk := func(s sim.SchemeKind, b string, exec float64) sim.Result {
		return sim.Result{Scheme: s, Benchmark: b, ExecNS: exec, IPC: 1, AreaMM2: 2, ReplyBitShare: 0.5,
			ReqQueueNS: 1, ReqNetNS: 1, RepQueueNS: 1, RepNetNS: 1}
	}
	ev := &Evaluation{
		Config:  EvalConfig{Width: 8, Height: 8, NumCBs: 8},
		Schemes: []sim.SchemeKind{sim.SingleBase, sim.EquiNox},
		Benches: []string{"kmeans", "bfs"},
		Results: map[sim.SchemeKind]map[string]sim.Result{
			sim.SingleBase: {
				"kmeans": mk(sim.SingleBase, "kmeans", 100),
				"bfs":    mk(sim.SingleBase, "bfs", 200),
			},
			sim.EquiNox: {
				"kmeans": mk(sim.EquiNox, "kmeans", 50),
				// bfs failed: no entry.
			},
		},
		Errors: []error{errors.New("EquiNox/bfs: exceeded cycles")},
	}
	return ev
}

// TestSummariesTolerateMissingRuns: a failed run must drop out of the
// aggregates instead of polluting them with zeros.
func TestSummariesTolerateMissingRuns(t *testing.T) {
	ev := evalWithHole()

	exec := ev.ExecTimeSummary(sim.SingleBase)
	if got := exec[sim.EquiNox]; got != 0.5 {
		t.Errorf("EquiNox exec summary = %v, want 0.5 (geomean over present runs only)", got)
	}
	if got := exec[sim.SingleBase]; got != 1 {
		t.Errorf("SingleBase exec summary = %v, want 1", got)
	}

	if got := ev.AreaSummary()[sim.EquiNox]; got != 2 {
		t.Errorf("area summary = %v, want 2 (missing run skipped)", got)
	}
	if got := ev.IPCSummary()[sim.EquiNox]; got != 1 {
		t.Errorf("IPC summary = %v, want 1", got)
	}
	if got := ev.ReplyBitShare(sim.EquiNox); got != 0.5 {
		t.Errorf("reply bit share = %v, want 0.5", got)
	}

	// The per-benchmark figure renders the hole as "-", not 0.000.
	fig := ev.Figure9a().String()
	if !strings.Contains(fig, "-") {
		t.Errorf("figure does not mark the failed run:\n%s", fig)
	}
	if strings.Contains(fig, "0.000") {
		t.Errorf("figure shows a zero for the failed run:\n%s", fig)
	}

	// Export lists only completed runs, plus the error.
	var buf bytes.Buffer
	if err := ev.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Runs   []json.RawMessage `json:"runs"`
		Errors []string          `json:"errors"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 3 {
		t.Errorf("exported %d runs, want 3", len(out.Runs))
	}
	if len(out.Errors) != 1 {
		t.Errorf("exported %d errors, want 1", len(out.Errors))
	}
}

// TestEvalConfigValidation: descriptive rejection instead of a crash.
func TestEvalConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  EvalConfig
		want string
	}{
		{"negative dims", EvalConfig{Width: -8, Height: 8, NumCBs: 4}, "negative mesh"},
		{"too many CBs", EvalConfig{Width: 4, Height: 4, NumCBs: 20}, "leave no PEs"},
		{"unknown benchmark", EvalConfig{Width: 8, Height: 8, NumCBs: 8, Benchmarks: []string{"doom"}}, "unknown benchmark"},
		{"unknown scheme", EvalConfig{Width: 8, Height: 8, NumCBs: 8, Schemes: []sim.SchemeKind{99}}, "unknown scheme"},
		{"negative instructions", EvalConfig{Width: 8, Height: 8, NumCBs: 8, InstructionsPerPE: -5}, "InstructionsPerPE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunEvaluation(tc.cfg)
			if err == nil {
				t.Fatalf("RunEvaluation(%+v) accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunConfigValidation covers the single-run entry point.
func TestRunConfigValidation(t *testing.T) {
	if _, err := RunBenchmark(RunConfig{Scheme: 99, Benchmark: "kmeans"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunBenchmark(RunConfig{Scheme: sim.SingleBase, Benchmark: "kmeans", NumCBs: 64}); err == nil {
		t.Error("CB count filling the mesh accepted")
	}
	if _, err := RunBenchmark(RunConfig{Scheme: sim.SingleBase, Benchmark: "kmeans", Width: -1}); err == nil {
		t.Error("negative width accepted")
	}
}

// TestRunEvaluationCancellation: a cancelled context aborts the sweep and
// reports it once via the returned error, not per run.
func TestRunEvaluationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev, err := RunEvaluationContext(ctx, EvalConfig{
		Schemes:           []sim.SchemeKind{sim.SingleBase},
		Benchmarks:        []string{"kmeans"},
		InstructionsPerPE: 100,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ev == nil {
		t.Fatal("no partial evaluation returned")
	}
	for _, e := range ev.Errors {
		t.Errorf("cancellation leaked into ev.Errors: %v", e)
	}
}

// TestRunBenchmarkCancellation: the simulator's cycle loop honors ctx.
func TestRunBenchmarkCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBenchmarkContext(ctx, RunConfig{Scheme: sim.SingleBase, Benchmark: "kmeans"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluationPhases: the sweep reports aggregated phase spans — one sim
// span per completed run, plus the design-flow phases when an EquiNox design
// is built — and they survive JSON export. Run under a caller's span whose
// trace already holds unrelated sim spans, the sweep counts only its own.
func TestEvaluationPhases(t *testing.T) {
	cfg := EvalConfig{
		Width: 8, Height: 8, NumCBs: 8,
		Schemes:           []sim.SchemeKind{sim.SingleBase, sim.EquiNox},
		Benchmarks:        []string{"kmeans", "hotspot"},
		InstructionsPerPE: 100,
	}
	ev, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, ev.Phases, nil)

	tr := trace.NewTracer("test").New()
	job := tr.Start("", "job")
	tr.Start("", "sim").End()
	tr.Start(job.ID(), "sim").End()
	tr.Observe(job.ID(), "mcts", time.Now(), time.Millisecond)
	unrelated := len(tr.Records())
	traced, err := RunEvaluationContext(trace.WithSpan(context.Background(), job), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, traced.Phases, tr.Records()[unrelated:])

	var buf bytes.Buffer
	if err := ev.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var exported ExportedEvaluation
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	if len(exported.Phases) != len(ev.Phases) {
		t.Errorf("exported %d phases, want %d", len(exported.Phases), len(ev.Phases))
	}
}

// checkPhases asserts the 2×2 sweep's phases: placement, mcts and sim in
// first-seen order with one span per design step and per run, consistent
// totals and, when the sweep's own span records are given, NS equal to the
// summed durations of its spans of that name.
func checkPhases(t *testing.T, phases []obs.Phase, sweep []trace.SpanRecord) {
	t.Helper()
	want := []struct {
		name  string
		count int64
	}{{"placement", 1}, {"mcts", 1}, {"sim", 4}}
	if len(phases) != len(want) {
		t.Fatalf("phases = %+v, want placement, mcts, sim", phases)
	}
	for i, w := range want {
		p := phases[i]
		if p.Name != w.name || p.Count != w.count {
			t.Errorf("phase %d = %+v, want %s with count %d", i, p, w.name, w.count)
		}
		if p.MinNS < 0 || p.MinNS > p.MaxNS || p.NS < p.MaxNS || p.MS != float64(p.NS)/1e6 {
			t.Errorf("phase %+v has inconsistent totals", p)
		}
	}
	if sweep == nil {
		return
	}
	sums := map[string]int64{}
	for _, r := range sweep {
		sums[r.Name] += r.DurNS
	}
	for _, p := range phases {
		if p.NS != sums[p.Name] {
			t.Errorf("%s NS = %d, want %d (the sum of its spans' durations)", p.Name, p.NS, sums[p.Name])
		}
	}
}
