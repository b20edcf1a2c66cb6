package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"equinox"
	"equinox/internal/core"
	"equinox/internal/noc"
	"equinox/internal/sim"
	"equinox/internal/workloads"
)

// simLoad is the two simulator workloads: every scheme of §5 on one
// benchmark profile, one run after another on the serial stepper.
type simLoad struct {
	prof    workloads.Profile
	design  *core.Design
	configs []sim.Config
}

// simConfig is the Table 1 system for a scheme, with the EquiNox design
// wired in where the scheme needs it.
func simConfig(s sim.SchemeKind, d *core.Design, instr int, seed int64) sim.Config {
	cfg := sim.DefaultConfig(s)
	cfg.InstructionsPerPE = instr
	cfg.Seed = seed
	if s == sim.EquiNox {
		cfg.CBOverride = d.CBs
		cfg.EIRGroups = d.Groups
	}
	return cfg
}

// setupSim is the set-up both simulator workloads pay: the benchmark
// profile, the greedy EquiNox design, and one sim.NewSystem per scheme.
func setupSim(e env, benchmark string, instr int) (instance, error) {
	prof, err := workloads.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	d, err := equinox.DesignForMesh(8, 8, 8)
	if err != nil {
		return nil, err
	}
	l := &simLoad{prof: prof, design: d}
	for _, s := range sim.AllSchemes() {
		cfg := simConfig(s, d, instr, e.seed)
		if _, err := sim.NewSystem(cfg, prof); err != nil {
			return nil, err
		}
		l.configs = append(l.configs, cfg)
	}
	return l, nil
}

func (l *simLoad) warm() error { return nil }
func (l *simLoad) close()      {}

func (l *simLoad) run(deadline time.Time, rec *recorder) {
	eachCore(func(lane int) {
		// Lanes start at different schemes so that they do not all run the
		// slowest one (DA2Mesh) at the same moment.
		for i := lane * len(l.configs) / runtime.NumCPU(); time.Now().Before(deadline); i++ {
			k := i % len(l.configs)
			l.one(rec, k, lane, l.configs[k])
		}
	})
}

// one is the timed operation: build the system and run it to completion.
func (l *simLoad) one(rec *recorder, kind, lane int, cfg sim.Config) {
	o := rec.begin("run "+cfg.Scheme.String(), kind, lane)
	sp := o.span("sim.NewSystem", "sim")
	sys, err := sim.NewSystem(cfg, l.prof)
	sp.end(nil)
	if err != nil {
		o.done(0, err)
		return
	}
	sp = o.span("sim.RunToCompletion", "sim")
	res, err := sys.RunToCompletion()
	sp.end(map[string]float64{"cycles": float64(res.ExecCycles), "instructions": float64(res.Instructions)})
	// Work is counted in retired instructions, not cycles: the instruction
	// count is all but fixed by the budget, while the cycle count moves by a
	// tenth from seed to seed on the light-load benchmark (a straggling PE
	// adds thousands of near-idle cycles that cost almost no host time).
	o.done(float64(res.Instructions), err)
	if err != nil {
		return
	}
	checkSimResult(rec, cfg, res, sys.Networks())
	data, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to encode
	rec.output(fmt.Sprintf("sim/%s/%s", l.prof.Name, cfg.Scheme), data)
}

func (l *simLoad) verify(*recorder) {}

// checkSimResult applies the per-run correctness checks: the run finished,
// every PE retired at least its budget (divergent accesses retire extra
// instructions, so the total may exceed it), and every network delivered
// every packet it accepted.
func checkSimResult(rec *recorder, cfg sim.Config, res sim.Result, nets []*noc.Network) {
	name := fmt.Sprintf("%v/%s", cfg.Scheme, res.Benchmark)
	rec.check(!res.TimedOut, "%s: timed out", name)
	pes := int64(cfg.Width*cfg.Height - cfg.NumCBs)
	rec.check(res.Instructions >= pes*int64(cfg.InstructionsPerPE),
		"%s: retired %d instructions, want at least %d", name, res.Instructions, pes*int64(cfg.InstructionsPerPE))
	for _, n := range nets {
		for c := noc.Class(0); c < noc.NumClasses; c++ {
			rec.check(n.Stats.Injected[c] == n.Stats.Delivered[c],
				"%s: network %s class %v injected %d but delivered %d", name, n.Cfg.Name, c, n.Stats.Injected[c], n.Stats.Delivered[c])
		}
	}
}
