// Package service is the evaluation-as-a-service layer: a long-running job
// server that accepts JSON sweep submissions over HTTP, executes them on a
// bounded worker pool, and serves results from a content-addressed LRU
// cache. Design-space exploration loops (learning-based search, Pareto
// optimization) submit thousands of near-duplicate configurations; keying
// results by a canonical hash of the job specification makes every repeat
// query free.
package service

import (
	"fmt"
	"sort"

	"equinox"
	"equinox/internal/fleet"
	"equinox/internal/sim"
)

// JobSpec is the wire form of one evaluation job. The zero value of every
// field means "the paper's default" (8×8 mesh, 8 CBs, all seven schemes,
// the full 29-benchmark suite), mirroring equinox.EvalConfig.Normalize.
type JobSpec struct {
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	NumCBs int `json:"numCBs,omitempty"`

	Schemes    []string `json:"schemes,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`

	InstructionsPerPE int   `json:"instructionsPerPE,omitempty"`
	Seed              int64 `json:"seed,omitempty"`

	// Design optionally pins the EquiNox design (the export.go codec's
	// shape); nil lets the server build one with the fast greedy search.
	Design *equinox.ExportedDesign `json:"design,omitempty"`

	// Trace attaches the flight recorder to one run of the sweep (the first
	// scheme on the first benchmark) and stores the Perfetto trace as a job
	// artifact at GET /v1/jobs/{id}/trace. Traced jobs hash to a different
	// content key than untraced ones — their artifacts differ.
	Trace bool `json:"trace,omitempty"`

	// Telemetry attaches the windowed telemetry time-series to every run of
	// the sweep (internal/telemetry): per-window throughput, latency
	// quantiles, occupancy, and the online steady-state/saturation
	// detectors. Summaries ride the result document's "telemetry" block,
	// stream live as "telemetry" SSE frames, and are served assembled at
	// GET /v1/jobs/{id}/telemetry. Purely observational — like Priority it
	// is excluded from the content key, so instrumented and plain runs of
	// the same sweep share one cached result (which may therefore lack, or
	// carry, telemetry regardless of this flag).
	Telemetry bool `json:"telemetry,omitempty"`

	// Parallel is accepted, range-checked and dropped by Canonicalize: it
	// once selected an intra-simulation parallel stepper, and old clients
	// and journals still send it (the submit decoder rejects unknown
	// fields). It never was part of the content key.
	Parallel int `json:"parallel,omitempty"`

	// Priority selects the scheduling class: "interactive" for jobs a
	// human is waiting on, "batch" (the default) for bulk sweeps.
	// Interactive work is dequeued at a 3:1 weighted share, so a huge
	// batch backlog cannot starve it. Priority is scheduling advice, not
	// job identity: it is excluded from the content key, and the same
	// sweep at any priority shares one result.
	Priority string `json:"priority,omitempty"`
}

// Canonicalize returns the spec with defaults made explicit and list fields
// sorted and deduplicated, and validates it. Two submissions describing the
// same sweep — whatever their field order, defaulted fields, or list
// permutations — canonicalize to the same value and therefore the same
// content key.
func (s JobSpec) Canonicalize() (JobSpec, error) {
	c := s
	if c.Width == 0 {
		c.Width, c.Height, c.NumCBs = 8, 8, 8
	}
	if c.Height == 0 {
		c.Height = c.Width
	}
	if c.NumCBs == 0 {
		c.NumCBs = 8
	}

	if len(c.Schemes) == 0 {
		c.Schemes = nil
		for _, k := range sim.AllSchemes() {
			c.Schemes = append(c.Schemes, k.String())
		}
	} else {
		kinds := map[string]sim.SchemeKind{}
		for _, name := range c.Schemes {
			k, err := equinox.ParseScheme(name)
			if err != nil {
				return JobSpec{}, err
			}
			kinds[k.String()] = k // one entry per scheme however it was spelled
		}
		var names []string
		for name := range kinds {
			names = append(names, name)
		}
		// Paper order, so the canonical scheme list is stable and readable.
		sort.Slice(names, func(i, j int) bool { return kinds[names[i]] < kinds[names[j]] })
		c.Schemes = names
	}

	if len(c.Benchmarks) == 0 {
		c.Benchmarks = equinox.Benchmarks()
	} else {
		seen := map[string]bool{}
		var names []string
		for _, b := range c.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
		c.Benchmarks = names
	}
	// Lexical order regardless of how the list was spelled (the default
	// suite comes back in suite order), so permutations share a key.
	c.Benchmarks = append([]string(nil), c.Benchmarks...)
	sort.Strings(c.Benchmarks)

	switch c.Priority {
	case "":
		c.Priority = "batch"
	case "interactive", "batch":
	default:
		return JobSpec{}, fmt.Errorf("service: priority must be \"interactive\" or \"batch\", not %q", c.Priority)
	}
	if c.Parallel < 0 {
		return JobSpec{}, fmt.Errorf("service: negative parallel %d", c.Parallel)
	}
	c.Parallel = 0

	cfg, err := c.evalConfig()
	if err != nil {
		return JobSpec{}, err
	}
	if err := cfg.Validate(); err != nil {
		return JobSpec{}, err
	}
	return c, nil
}

// class maps the canonical priority to its fleet queue class.
func (s JobSpec) class() fleet.Class {
	if s.Priority == "interactive" {
		return fleet.Interactive
	}
	return fleet.Batch
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical JSON encoding. Identical sweeps — and only identical sweeps —
// share a key, which doubles as the job ID.
func (s JobSpec) Key() (string, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return "", err
	}
	return keyOf(c)
}

// Runs returns the number of (scheme, benchmark) simulations the canonical
// spec executes.
func (s JobSpec) Runs() int { return len(s.Schemes) * len(s.Benchmarks) }

// evalConfig converts the spec to the harness configuration, importing the
// pinned design when present.
func (s JobSpec) evalConfig() (equinox.EvalConfig, error) {
	cfg := equinox.EvalConfig{
		Width:             s.Width,
		Height:            s.Height,
		NumCBs:            s.NumCBs,
		Benchmarks:        s.Benchmarks,
		InstructionsPerPE: s.InstructionsPerPE,
		Seed:              s.Seed,
	}
	for _, name := range s.Schemes {
		k, err := equinox.ParseScheme(name)
		if err != nil {
			return equinox.EvalConfig{}, err
		}
		cfg.Schemes = append(cfg.Schemes, k)
	}
	if s.Design != nil {
		d, err := equinox.ImportDesign(s.Design)
		if err != nil {
			return equinox.EvalConfig{}, fmt.Errorf("service: bad design: %w", err)
		}
		if d.Width != s.Width || d.Height != s.Height {
			return equinox.EvalConfig{}, fmt.Errorf("service: design is %dx%d but the job mesh is %dx%d",
				d.Width, d.Height, s.Width, s.Height)
		}
		cfg.Design = d
	}
	cfg.Flight = s.Trace
	cfg.Telemetry = s.Telemetry
	return cfg, nil
}
