package equinox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"equinox/internal/sim"
)

func TestEvalConfigRoundTrip(t *testing.T) {
	spec, err := json.Marshal(evalConfigJSON{
		Width: 8, Height: 8, NumCBs: 8,
		Schemes:           []string{sim.SingleBase.String(), sim.EquiNox.String()},
		Benchmarks:        []string{"bfs", "kmeans"},
		InstructionsPerPE: 321,
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadEvalConfig(bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 8 || got.InstructionsPerPE != 321 || got.Seed != 9 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Schemes) != 2 || got.Schemes[1] != sim.EquiNox {
		t.Errorf("schemes: %v", got.Schemes)
	}
	if len(got.Benchmarks) != 2 {
		t.Errorf("benchmarks: %v", got.Benchmarks)
	}
}

func TestLoadEvalConfigRejectsUnknowns(t *testing.T) {
	if _, err := LoadEvalConfig(strings.NewReader(`{"schemes":["NopeScheme"]}`)); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := LoadEvalConfig(strings.NewReader(`{"benchmarks":["nope"]}`)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := LoadEvalConfig(strings.NewReader(`{"bogusField":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadEvalConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadEvalConfigDefaults(t *testing.T) {
	cfg, err := LoadEvalConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 8 || cfg.Height != 8 || cfg.NumCBs != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestMeshDefaultsPerField: each mesh field defaults on its own (width 8,
// height = width, 8 CBs), so an explicit height or CB count survives an
// omitted width, in Normalize and in LoadEvalConfig alike.
func TestMeshDefaultsPerField(t *testing.T) {
	cases := []struct{ in, want [3]int }{
		{[3]int{0, 0, 0}, [3]int{8, 8, 8}},
		{[3]int{0, 0, 4}, [3]int{8, 8, 4}},
		{[3]int{0, 12, 0}, [3]int{8, 12, 8}},
		{[3]int{12, 0, 0}, [3]int{12, 12, 8}},
		{[3]int{6, 4, 2}, [3]int{6, 4, 2}},
	}
	for _, tc := range cases {
		n := EvalConfig{Width: tc.in[0], Height: tc.in[1], NumCBs: tc.in[2]}.Normalize()
		if got := [3]int{n.Width, n.Height, n.NumCBs}; got != tc.want {
			t.Errorf("Normalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
		doc := fmt.Sprintf(`{"width":%d,"height":%d,"numCBs":%d}`, tc.in[0], tc.in[1], tc.in[2])
		cfg, err := LoadEvalConfig(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("LoadEvalConfig(%s): %v", doc, err)
		}
		if got := [3]int{cfg.Width, cfg.Height, cfg.NumCBs}; got != tc.want {
			t.Errorf("LoadEvalConfig(%s) mesh = %v, want %v", doc, got, tc.want)
		}
	}
}
