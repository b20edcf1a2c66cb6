package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"time"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/fleet"
	"equinox/internal/interposer"
	"equinox/internal/mcts"
	"equinox/internal/placement"
	"equinox/internal/sim"
)

func ladderHarness(ls layerSet, e env, rec *recorder) {
	ls.set("harness.design_ms", ms(timeReps(5, func() { _, _ = equinox.DesignForMesh(8, 8, 8) })))
	cfg, err := sweepConfig(e, sweepBenchmarks, e.pick(60, 30))
	if !rec.check(err == nil, "harness rung: %v", err) {
		return
	}
	t0 := time.Now()
	ev, err := equinox.RunEvaluationContext(context.Background(), cfg)
	wall := time.Since(t0).Seconds()
	if !rec.check(err == nil, "harness rung: %v", err) {
		return
	}
	checkSweep(rec, cfg, ev)
	ls.set("harness.eval_wall_s", wall)
	var doc bytes.Buffer
	ls.set("harness.write_json_ms", ms(timeReps(5, func() { doc.Reset(); err = ev.WriteJSON(&doc) })))
	rec.check(err == nil, "harness rung: WriteJSON: %v", err)
	ls.set("harness.tables_ms", ms(timeReps(5, func() { renderTables(ev) })))
	if canon, err := fleet.CanonicalResult(doc.Bytes()); rec.check(err == nil, "harness rung: %v", err) {
		rec.output("ladder/sweep", canon)
	}

	// The sweep's own "sim" phase sums every run's RunToCompletion time and
	// keeps the longest: busy time over core time is the share of the cores
	// the harness kept loaded, and the longest run bounds the wall from below.
	for _, ph := range ev.Phases {
		if ph.Name == "sim" {
			ls.set("harness.parallel_efficiency", float64(ph.NS)/1e9/(wall*float64(runtime.NumCPU())))
			ls.set("harness.slowest_run_share", float64(ph.MaxNS)/1e9/wall)
		}
	}

	norm := ev.ExecTimeSummary(sim.SingleBase)
	ls.set("fidelity.exec_norm.EquiNox", norm[sim.EquiNox])
	ls.set("fidelity.exec_norm.Interposer-CMesh", norm[sim.InterposerCMesh])
	ls.set("fidelity.exec_norm.DA2Mesh", norm[sim.DA2Mesh])
	ls.set("fidelity.paper_delta.EquiNox", norm[sim.EquiNox]-paperExecNormEquiNox)
}

func ladderDesign(ls layerSet, e env, rec *recorder) {
	var pl8, pl12 placement.Placement
	var err error
	ls.set("placement.best_nqueen_ms.8", ms(timeReps(3, func() { pl8, err = placement.BestNQueen(8, 8, 8) })))
	if !rec.check(err == nil, "design rung: %v", err) {
		return
	}
	ls.set("placement.best_nqueen_ms.12", ms(timeReps(1, func() { pl12, err = placement.BestNQueen(12, 12, 12) })))
	if !rec.check(err == nil, "design rung: %v", err) {
		return
	}

	// The searches alone run at a quarter (8×8) and an eighth (12×12) of the
	// default 400 iterations a level: the ladder needs their cost per
	// evaluation and their scaling, not four more seconds of search.
	opts := mcts.DefaultOptions()
	opts.Seed = e.seed
	opts.IterationsPerLevel = e.pick(100, 20)
	p8 := mcts.NewProblem(8, 8, pl8.CBs)
	t0 := time.Now()
	res, err := mcts.Search(p8, opts)
	el := time.Since(t0).Seconds()
	if !rec.check(err == nil, "design rung: mcts 8x8: %v", err) {
		return
	}
	ls.set("mcts.search_s.8", el)
	ls.set("mcts.evals_per_s", float64(res.Evaluated)/el)

	opts.IterationsPerLevel = e.pick(50, 10)
	t0 = time.Now()
	_, err = mcts.Search(mcts.NewProblem(12, 12, pl12.CBs), opts)
	ls.set("mcts.search_s.12", time.Since(t0).Seconds())
	rec.check(err == nil, "design rung: mcts 12x12: %v", err)

	var greedy mcts.Result
	ls.set("mcts.greedy_us", us(timeReps(20, func() { greedy, err = mcts.GreedyTwoHop(p8) })))
	if !rec.check(err == nil, "design rung: greedy: %v", err) {
		return
	}
	groups := p8.Groups(greedy.Assignment)
	ls.set("interposer.plan_ms", ms(timeReps(20, func() {
		plan := interposer.EIRPlan(groups, 128)
		_ = plan.Crossings()
		err = plan.Validate(8, 8)
	})))
	rec.check(err == nil, "design rung: interposer plan: %v", err)

	cfg := designConfig(8, e.seed)
	if e.quick {
		cfg.MCTS.IterationsPerLevel = 60
	}
	t0 = time.Now()
	d, err := core.BuildDesign(cfg)
	ls.set("core.build_design_s.8", time.Since(t0).Seconds())
	if !rec.check(err == nil, "design rung: BuildDesign: %v", err) {
		return
	}
	checkDesign(rec, d)
	data, _ := json.Marshal(equinox.ExportDesign(d))
	rec.output("ladder/design/8x8", data)
	rep := d.Summarize()
	ls.set("design.links", float64(rep.Links))
	ls.set("design.crossings", float64(rep.Crossings))
	ls.set("design.max_eir_load", d.Eval.MaxLoad)
	ls.set("design.placement_score", float64(rep.PlacementScore))
	if rep.AllTwoHop {
		ls.set("design.all_two_hop", 1)
	}
}
