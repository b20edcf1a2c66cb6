package equinox

import (
	"fmt"

	"equinox/internal/sim"
	"equinox/internal/workloads"
)

// ParseScheme resolves a scheme by its display name ("EquiNox",
// "SeparateBase", …), case-insensitively. It is the inverse of
// sim.SchemeKind.String.
func ParseScheme(name string) (sim.SchemeKind, error) {
	if s, ok := sim.ParseScheme(name); ok {
		return s, nil
	}
	return 0, fmt.Errorf("equinox: unknown scheme %q (known: %v)", name, sim.AllSchemes())
}

// knownBenchmark reports whether name is in the 29-benchmark suite.
func knownBenchmark(name string) bool {
	_, err := workloads.ByName(name)
	return err == nil
}

// Normalize returns the configuration with defaults applied, each field on
// its own: width 8, height = width, 8 cache banks, all seven schemes, and the
// full benchmark suite. RunEvaluationContext, LoadEvalConfig and the job
// server all canonicalize through it, so a defaulted field and its explicit
// default value describe the same sweep.
func (cfg EvalConfig) Normalize() EvalConfig {
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.Height == 0 {
		cfg.Height = cfg.Width
	}
	if cfg.NumCBs == 0 {
		cfg.NumCBs = 8
	}
	if cfg.Schemes == nil {
		cfg.Schemes = sim.AllSchemes()
	}
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = Benchmarks()
	}
	return cfg
}

// Validate reports EvalConfig errors with actionable messages. Callers
// should Normalize first; RunEvaluationContext does both.
func (cfg EvalConfig) Validate() error {
	if cfg.Width < 0 || cfg.Height < 0 {
		return fmt.Errorf("equinox: negative mesh dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Width < 2 || cfg.Height < 2 {
		return fmt.Errorf("equinox: mesh %dx%d too small (minimum 2x2)", cfg.Width, cfg.Height)
	}
	if cfg.NumCBs < 1 {
		return fmt.Errorf("equinox: need at least one cache bank, got %d", cfg.NumCBs)
	}
	if cfg.NumCBs >= cfg.Width*cfg.Height {
		return fmt.Errorf("equinox: %d cache banks leave no PEs on a %dx%d mesh (%d nodes)",
			cfg.NumCBs, cfg.Width, cfg.Height, cfg.Width*cfg.Height)
	}
	for _, s := range cfg.Schemes {
		if s < 0 || s >= sim.NumSchemes {
			return fmt.Errorf("equinox: unknown scheme %d (0..%d)", int(s), int(sim.NumSchemes)-1)
		}
	}
	for _, b := range cfg.Benchmarks {
		if !knownBenchmark(b) {
			return fmt.Errorf("equinox: unknown benchmark %q (see Benchmarks())", b)
		}
	}
	if cfg.InstructionsPerPE < 0 {
		return fmt.Errorf("equinox: negative InstructionsPerPE %d", cfg.InstructionsPerPE)
	}
	if cfg.Parallelism < 0 {
		return fmt.Errorf("equinox: negative Parallelism %d", cfg.Parallelism)
	}
	return nil
}
