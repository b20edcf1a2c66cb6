// Package equinox is the top-level API of the EquiNox reproduction
// (Li & Chen, "EquiNox: Equivalent NoC Injection Routers for Silicon
// Interposer-based Throughput Processors", HPCA 2020).
//
// It ties together the design flow (N-Queen cache-bank placement + MCTS
// selection of equivalent injection routers, package internal/core), the
// cycle-accurate full-system simulator (internal/sim), and the evaluation
// harness that regenerates every table and figure of the paper's §6.
//
// Quick start:
//
//	design, _ := equinox.Design(equinox.DefaultDesignConfig())
//	res, _ := equinox.RunBenchmark(equinox.RunConfig{
//	    Scheme:    sim.EquiNox,
//	    Benchmark: "kmeans",
//	    Design:    design,
//	})
//	fmt.Println(res.ExecNS, res.IPC)
package equinox

import (
	"context"

	"equinox/internal/core"
	"equinox/internal/flight"
	"equinox/internal/sim"
	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

// DesignConfig re-exports the design-flow configuration.
type DesignConfig = core.DesignConfig

// DefaultDesignConfig returns the paper's 8×8 / 8-CB design point.
func DefaultDesignConfig() DesignConfig { return core.DefaultDesignConfig() }

// Design runs the §4 design flow: N-Queen CB placement with the hot-zone
// scoring policy, MCTS EIR selection, passive-interposer enforcement, and
// the resulting RDL wiring plan.
func Design(cfg DesignConfig) (*core.Design, error) { return core.BuildDesign(cfg) }

// RunConfig configures one benchmark run.
type RunConfig struct {
	Scheme    sim.SchemeKind
	Benchmark string // one of the 29 suite names (workloads.Suite)

	Width, Height, NumCBs int // zero = the 8×8/8 default

	// Design supplies the EquiNox EIR selection; required when Scheme is
	// sim.EquiNox, ignored otherwise. Use Design() to build one.
	Design *core.Design

	// InstructionsPerPE scales simulation length (zero = default).
	InstructionsPerPE int
	Seed              int64
}

// RunBenchmark simulates one scheme on one benchmark and returns the full
// measurement set (execution time, latency breakdown, energy, area).
func RunBenchmark(rc RunConfig) (sim.Result, error) {
	return RunBenchmarkContext(context.Background(), rc)
}

// RunBenchmarkContext is RunBenchmark with cancellation: the simulation's
// cycle loop polls ctx and returns ctx.Err() when it is cancelled.
func RunBenchmarkContext(ctx context.Context, rc RunConfig) (sim.Result, error) {
	res, _, _, err := runInstrumented(ctx, rc, false, false)
	return res, err
}

// runInstrumented is RunBenchmarkContext with the flight recorder and/or the
// telemetry series attached to every network, at their default options (both
// may ride one run: a traced job with telemetry on). Both are purely
// observational — the Result is bit-identical to an uninstrumented run — and
// the captures are returned even when the run fails: a starvation-watchdog
// diagnostic or a timeout is exactly when the recorded events and windows
// matter most.
func runInstrumented(ctx context.Context, rc RunConfig, traced, telem bool) (sim.Result, *flight.Capture, *telemetry.Capture, error) {
	cfg, prof, err := rc.simSetup()
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	sys, err := sim.NewSystem(cfg, prof)
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	var fc *flight.Capture
	var tc *telemetry.Capture
	if traced {
		fc = sys.AttachFlight(flight.Options{})
	}
	if telem {
		tc = sys.AttachTelemetry(telemetry.Options{})
	}
	res, err := sys.RunToCompletionContext(ctx)
	return res, fc, tc, err
}

// simSetup validates the run configuration and resolves it into the
// simulator's config plus the benchmark profile.
func (rc RunConfig) simSetup() (sim.Config, workloads.Profile, error) {
	if err := rc.Validate(); err != nil {
		return sim.Config{}, workloads.Profile{}, err
	}
	prof, err := workloads.ByName(rc.Benchmark)
	if err != nil {
		return sim.Config{}, workloads.Profile{}, err
	}
	cfg := sim.DefaultConfig(rc.Scheme)
	if rc.Width > 0 {
		cfg.Width = rc.Width
	}
	if rc.Height > 0 {
		cfg.Height = rc.Height
	}
	if rc.NumCBs > 0 {
		cfg.NumCBs = rc.NumCBs
	}
	if rc.InstructionsPerPE > 0 {
		cfg.InstructionsPerPE = rc.InstructionsPerPE
	}
	if rc.Seed != 0 {
		cfg.Seed = rc.Seed
	}
	if rc.Scheme == sim.EquiNox {
		cfg.CBOverride = rc.Design.CBs
		cfg.EIRGroups = rc.Design.Groups
	}
	return cfg, prof, nil
}

// Benchmarks returns the 29 benchmark names of the evaluation suite.
func Benchmarks() []string {
	var names []string
	for _, p := range workloads.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// DesignForMesh builds (or reuses) an EquiNox design sized for a mesh,
// using the fast greedy search — the right default for large sweeps.
func DesignForMesh(w, h, numCBs int) (*core.Design, error) {
	return DesignForMeshContext(context.Background(), w, h, numCBs)
}

// DesignForMeshContext is DesignForMesh with the design-flow steps recorded
// as children of the context's span (if any).
func DesignForMeshContext(ctx context.Context, w, h, numCBs int) (*core.Design, error) {
	cfg := core.DefaultDesignConfig()
	cfg.Width, cfg.Height, cfg.NumCBs = w, h, numCBs
	cfg.Search = core.SearchGreedyTwoHop
	return core.BuildDesignContext(ctx, cfg)
}
