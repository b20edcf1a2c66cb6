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
//	ev, _ := equinox.RunEvaluationContext(ctx, equinox.EvalConfig{
//	    Schemes:    []sim.SchemeKind{sim.EquiNox},
//	    Benchmarks: []string{"kmeans"},
//	})
//	res, _ := ev.Result(sim.EquiNox, "kmeans")
//	fmt.Println(res.ExecNS, res.IPC)
package equinox

import (
	"context"

	"equinox/internal/core"
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

// Benchmarks returns the 29 benchmark names of the evaluation suite.
func Benchmarks() []string {
	var names []string
	for _, p := range workloads.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// DesignForMesh builds an EquiNox design sized for a mesh with the fast
// greedy two-hop search — the right default for large sweeps. Every call
// builds a new design; nothing is cached between calls.
func DesignForMesh(w, h, numCBs int) (*core.Design, error) {
	return designForMesh(context.Background(), w, h, numCBs)
}

// designForMesh is DesignForMesh with the design-flow steps recorded as
// children of the context's span (if any).
func designForMesh(ctx context.Context, w, h, numCBs int) (*core.Design, error) {
	cfg := core.DefaultDesignConfig()
	cfg.Width, cfg.Height, cfg.NumCBs = w, h, numCBs
	cfg.Search = core.SearchGreedyTwoHop
	return core.BuildDesignContext(ctx, cfg)
}
