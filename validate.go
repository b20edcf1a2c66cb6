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

// Validate reports RunConfig errors with actionable messages, so callers
// (the evaluation server in particular) can reject bad requests up front
// instead of crashing a worker mid-sweep.
func (rc RunConfig) Validate() error {
	if rc.Scheme < 0 || rc.Scheme >= sim.NumSchemes {
		return fmt.Errorf("equinox: unknown scheme %d (0..%d)", int(rc.Scheme), int(sim.NumSchemes)-1)
	}
	if rc.Benchmark == "" {
		return fmt.Errorf("equinox: no benchmark named (see Benchmarks())")
	}
	if !knownBenchmark(rc.Benchmark) {
		return fmt.Errorf("equinox: unknown benchmark %q (see Benchmarks())", rc.Benchmark)
	}
	if rc.Width < 0 || rc.Height < 0 {
		return fmt.Errorf("equinox: negative mesh dimensions %dx%d", rc.Width, rc.Height)
	}
	if rc.NumCBs < 0 {
		return fmt.Errorf("equinox: negative cache-bank count %d", rc.NumCBs)
	}
	w, h, cbs := rc.Width, rc.Height, rc.NumCBs
	if w == 0 {
		w = 8
	}
	if h == 0 {
		h = 8
	}
	if cbs == 0 {
		cbs = 8
	}
	if w < 2 || h < 2 {
		return fmt.Errorf("equinox: mesh %dx%d too small (minimum 2x2)", w, h)
	}
	if cbs >= w*h {
		return fmt.Errorf("equinox: %d cache banks leave no PEs on a %dx%d mesh (%d nodes)", cbs, w, h, w*h)
	}
	if rc.InstructionsPerPE < 0 {
		return fmt.Errorf("equinox: negative InstructionsPerPE %d", rc.InstructionsPerPE)
	}
	if rc.Scheme == sim.EquiNox && rc.Design == nil {
		return fmt.Errorf("equinox: EquiNox runs need a Design (see equinox.Design)")
	}
	return nil
}

// Normalize returns the configuration with defaults applied: the 8×8/8-CB
// mesh, all seven schemes, and the full benchmark suite. RunEvaluation and
// the job server both canonicalize through it, so a defaulted field and its
// explicit default value describe the same sweep.
func (cfg EvalConfig) Normalize() EvalConfig {
	if cfg.Width == 0 {
		cfg.Width, cfg.Height, cfg.NumCBs = 8, 8, 8
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
// should Normalize first; RunEvaluation does both.
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
