package main

import (
	"encoding/json"
	"fmt"
	"time"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/mcts"
	"equinox/internal/placement"
)

// designLoad is the design-search workload: the paper's §4 flow (N-Queen
// placement, MCTS EIR selection, interposer plan) at the 8×8 design point.
// It never constructs a network.
type designLoad struct {
	cfg core.DesignConfig
}

// designConfig is the §4 design point for an n×n mesh with n CBs, searched
// by MCTS from the run's seed.
func designConfig(n int, seed int64) core.DesignConfig {
	cfg := core.DefaultDesignConfig()
	cfg.Width, cfg.Height, cfg.NumCBs = n, n, n
	cfg.MCTS.Seed = seed
	return cfg
}

// setupDesign constructs and validates the search problem, the part of the
// flow that precedes the search itself.
func setupDesign(e env) (instance, error) {
	cfg := designConfig(8, e.seed)
	if e.quick {
		cfg.MCTS.IterationsPerLevel = 60
	}
	pl, err := placement.New(placement.NQueen, cfg.Width, cfg.Height, cfg.NumCBs)
	if err != nil {
		return nil, err
	}
	if err := mcts.NewProblem(cfg.Width, cfg.Height, pl.CBs).Validate(); err != nil {
		return nil, err
	}
	return &designLoad{cfg: cfg}, nil
}

func (l *designLoad) warm() error      { return nil }
func (l *designLoad) close()           {}
func (l *designLoad) verify(*recorder) {}

func (l *designLoad) run(deadline time.Time, rec *recorder) {
	eachCore(func(lane int) {
		for time.Now().Before(deadline) {
			o := rec.begin("design", 0, lane)
			sp := o.span("core.BuildDesign", "core")
			d, err := core.BuildDesign(l.cfg)
			sp.end(nil)
			o.done(1, err)
			if err != nil {
				continue
			}
			checkDesign(rec, d)
			data, _ := json.Marshal(equinox.ExportDesign(d)) // plain ints and bools
			rec.output(fmt.Sprintf("design/%dx%d", d.Width, d.Height), data)
		}
	})
}

// checkDesign checks the paper's physical constraints on the finished
// design: it validates, every EIR sits exactly two hops out (passive
// interposer) and no RDL wires cross.
func checkDesign(rec *recorder, d *core.Design) {
	name := fmt.Sprintf("design %dx%d", d.Width, d.Height)
	err := d.Validate()
	rec.check(err == nil, "%s: %v", name, err)
	rep := d.Summarize()
	rec.check(rep.AllTwoHop, "%s: not every EIR is two hops from its CB", name)
	rec.check(rep.Crossings == 0, "%s: %d RDL crossings", name, rep.Crossings)
}
