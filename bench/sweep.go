package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"equinox"
	"equinox/internal/fleet"
	"equinox/internal/sim"
)

// sweepBenchmarks spans the suite's range: reply-bound (kmeans), divergent
// (bfs), cache-friendly (hotspot) and compute-bound (myocyte).
var sweepBenchmarks = []string{"kmeans", "bfs", "hotspot", "myocyte"}

// sweepLoad is the eval-sweep workload: the equinox-eval / server-job path.
type sweepLoad struct {
	cfg equinox.EvalConfig
}

// sweepConfig is the sweep both the workload and the ladder's harness rung
// run: all seven schemes on the given benchmarks.
func sweepConfig(e env, benchmarks []string, instr int) (equinox.EvalConfig, error) {
	cfg := equinox.DefaultEvalConfig()
	cfg.Benchmarks = benchmarks
	cfg.InstructionsPerPE = instr
	cfg.Seed = e.seed
	cfg.Parallelism = runtime.NumCPU()
	d, err := equinox.DesignForMesh(cfg.Width, cfg.Height, cfg.NumCBs)
	if err != nil {
		return cfg, err
	}
	cfg.Design = d
	cfg = cfg.Normalize()
	return cfg, cfg.Validate()
}

func setupSweep(e env) (instance, error) {
	cfg, err := sweepConfig(e, sweepBenchmarks, e.pick(100, 40))
	if err != nil {
		return nil, err
	}
	return &sweepLoad{cfg: cfg}, nil
}

func (l *sweepLoad) warm() error      { return nil }
func (l *sweepLoad) close()           {}
func (l *sweepLoad) verify(*recorder) {}

func (l *sweepLoad) run(deadline time.Time, rec *recorder) {
	for time.Now().Before(deadline) {
		o := rec.begin("sweep", 0, 0)
		ev, doc, err := runSweep(o, l.cfg)
		runs := 0
		if ev != nil {
			for _, s := range ev.Schemes {
				runs += len(ev.Results[s])
			}
		}
		o.done(float64(runs), err)
		if err != nil {
			continue
		}
		checkSweep(rec, l.cfg, ev)
		canon, err := fleet.CanonicalResult(doc)
		if rec.check(err == nil, "sweep: canonical form: %v", err) {
			rec.output("sweep", canon)
		}
	}
}

// runSweep is the timed operation: the sweep, its JSON export, and the
// Figure 9/10/11 tables a user of equinox-eval prints.
func runSweep(o *op, cfg equinox.EvalConfig) (*equinox.Evaluation, []byte, error) {
	sp := o.span("equinox.RunEvaluationContext", "harness")
	ev, err := equinox.RunEvaluationContext(context.Background(), cfg)
	sp.end(nil)
	if err != nil {
		return ev, nil, err
	}
	sp = o.span("Evaluation.WriteJSON", "harness")
	var doc bytes.Buffer
	err = ev.WriteJSON(&doc)
	sp.end(map[string]float64{"bytes": float64(doc.Len())})
	if err != nil {
		return ev, nil, err
	}
	sp = o.span("Evaluation.Figure9-11", "harness")
	tables := renderTables(ev)
	sp.end(map[string]float64{"bytes": float64(tables)})
	return ev, doc.Bytes(), nil
}

// renderTables renders the summary figures and returns their total length.
func renderTables(ev *equinox.Evaluation) int {
	n := 0
	for _, t := range []equinox.Table{ev.Figure9a(), ev.Figure9b(), ev.Figure9c(), ev.Figure10(), ev.Figure11()} {
		n += len(t.String())
	}
	return n
}

// checkSweep checks that every (scheme, benchmark) cell is present and sane.
func checkSweep(rec *recorder, cfg equinox.EvalConfig, ev *equinox.Evaluation) {
	rec.check(len(ev.Errors) == 0, "sweep: %d runs failed: %v", len(ev.Errors), ev.Errors)
	pes := int64(cfg.Width*cfg.Height - cfg.NumCBs)
	for _, s := range sim.AllSchemes() {
		for _, b := range cfg.Benchmarks {
			res, ok := ev.Result(s, b)
			name := fmt.Sprintf("sweep %v/%s", s, b)
			if !rec.check(ok, "%s: no result", name) {
				continue
			}
			rec.check(!res.TimedOut, "%s: timed out", name)
			rec.check(res.Instructions >= pes*int64(cfg.InstructionsPerPE),
				"%s: retired %d instructions, want at least %d", name, res.Instructions, pes*int64(cfg.InstructionsPerPE))
		}
	}
}
