package equinox

import (
	"encoding/json"
	"fmt"
	"io"
)

// evalConfigJSON is the serialized shape of EvalConfig (scheme names as
// strings, no Design pointer — reference an exported design separately).
type evalConfigJSON struct {
	Width             int      `json:"width"`
	Height            int      `json:"height"`
	NumCBs            int      `json:"numCBs"`
	Schemes           []string `json:"schemes,omitempty"`
	Benchmarks        []string `json:"benchmarks,omitempty"`
	InstructionsPerPE int      `json:"instructionsPerPE,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	Parallelism       int      `json:"parallelism,omitempty"`
}

// SaveEvalConfig writes the configuration as JSON.
func SaveEvalConfig(cfg EvalConfig, w io.Writer) error {
	out := evalConfigJSON{
		Width:             cfg.Width,
		Height:            cfg.Height,
		NumCBs:            cfg.NumCBs,
		Benchmarks:        cfg.Benchmarks,
		InstructionsPerPE: cfg.InstructionsPerPE,
		Seed:              cfg.Seed,
		Parallelism:       cfg.Parallelism,
	}
	for _, s := range cfg.Schemes {
		out.Schemes = append(out.Schemes, s.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadEvalConfig reads a JSON evaluation configuration. Unknown scheme or
// benchmark names are rejected immediately rather than at sweep time.
func LoadEvalConfig(r io.Reader) (EvalConfig, error) {
	var in evalConfigJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return EvalConfig{}, fmt.Errorf("equinox: config: %w", err)
	}
	cfg := EvalConfig{
		Width:             in.Width,
		Height:            in.Height,
		NumCBs:            in.NumCBs,
		Benchmarks:        in.Benchmarks,
		InstructionsPerPE: in.InstructionsPerPE,
		Seed:              in.Seed,
		Parallelism:       in.Parallelism,
	}
	for _, name := range in.Schemes {
		s, err := ParseScheme(name)
		if err != nil {
			return EvalConfig{}, fmt.Errorf("equinox: config: unknown scheme %q", name)
		}
		cfg.Schemes = append(cfg.Schemes, s)
	}
	// The mesh comes back defaulted; empty scheme and benchmark lists stay
	// empty, meaning "all".
	norm := cfg.Normalize()
	if err := norm.Validate(); err != nil {
		return EvalConfig{}, err
	}
	cfg.Width, cfg.Height, cfg.NumCBs = norm.Width, norm.Height, norm.NumCBs
	return cfg, nil
}
