// Package sim is the full-system simulator of the paper's evaluation
// environment (§5): processing elements with L1s, shared cache banks with
// HBM controllers, and the request/reply NoCs of the seven compared schemes,
// all advanced together in the core clock domain (with DA2Mesh's reply
// subnets in their own 2.5× domain).
package sim

import (
	"fmt"

	"equinox/internal/geom"
	"equinox/internal/gpu"
	"equinox/internal/placement"
)

// Config configures one full-system simulation.
type Config struct {
	Scheme SchemeKind

	Width, Height int
	NumCBs        int

	// EIRGroups is required for EquiNox: CB tile → EIR tiles (normally from
	// the MCTS design flow; see internal/core).
	EIRGroups map[geom.Point][]geom.Point
	// CBOverride pins the CB placement (used with EIRGroups); when nil the
	// scheme's default placement applies (Diamond for schemes (1)–(6),
	// N-Queen for EquiNox).
	CBOverride []geom.Point

	PE gpu.PEConfig
	CB gpu.CBConfig

	// InstructionsPerPE scales the workload (profiles' budgets are replaced
	// by this when non-zero).
	InstructionsPerPE int

	Seed      int64
	MaxCycles int64

	// CoreClockGHz is the PE/base-network clock (Table 1: 1.126 GHz).
	CoreClockGHz float64

	// VCsPerPort overrides Table 1's two virtual channels per port on every
	// network when non-zero (ablation knob).
	VCsPerPort int

	// Parallel is validated (non-negative) and otherwise ignored: one run is
	// single-threaded, and parallelism comes from running many runs at once.
	//
	// Deprecated: the field remains only because the frozen bench/ladder_sim.go
	// assigns it; it goes when a benchmark PR retires par.speedup_p2.
	Parallel int
}

// DefaultConfig returns the Table 1 system for a scheme at 8×8 with 8 CBs.
func DefaultConfig(s SchemeKind) Config {
	return Config{
		Scheme:            s,
		Width:             8,
		Height:            8,
		NumCBs:            8,
		PE:                gpu.DefaultPEConfig(),
		CB:                gpu.DefaultCBConfig(),
		InstructionsPerPE: 1200,
		Seed:              1,
		MaxCycles:         3_000_000,
		CoreClockGHz:      1.126,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scheme < 0 || c.Scheme >= NumSchemes {
		return fmt.Errorf("sim: unknown scheme %d", int(c.Scheme))
	}
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("sim: mesh too small %dx%d", c.Width, c.Height)
	}
	if c.NumCBs < 1 || c.NumCBs >= c.Width*c.Height {
		return fmt.Errorf("sim: bad CB count %d", c.NumCBs)
	}
	if c.Scheme == EquiNox && c.EIRGroups == nil {
		return fmt.Errorf("sim: EquiNox requires EIRGroups (run the design flow)")
	}
	if c.InstructionsPerPE < 1 {
		return fmt.Errorf("sim: InstructionsPerPE must be ≥1")
	}
	if c.MaxCycles < 1 || c.CoreClockGHz <= 0 {
		return fmt.Errorf("sim: bad cycle/clock limits")
	}
	if c.Parallel < 0 {
		return fmt.Errorf("sim: negative Parallel %d", c.Parallel)
	}
	return nil
}

// CBTiles resolves the CB placement: CBOverride, or the scheme row's default
// (Diamond for schemes (1)–(6) per §5, N-Queen for EquiNox).
func (c Config) CBTiles() ([]geom.Point, error) {
	if c.CBOverride != nil {
		return c.CBOverride, nil
	}
	pl, err := placement.New(schemes[c.Scheme].placement, c.Width, c.Height, c.NumCBs)
	if err != nil {
		return nil, err
	}
	return pl.CBs, nil
}
