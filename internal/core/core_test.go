package core

import (
	"strings"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/interposer"
	"equinox/internal/mcts"
)

func TestBuildDesignDefault(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.MCTS.IterationsPerLevel = 200
	d, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.CBs) != 8 {
		t.Errorf("got %d CBs", len(d.CBs))
	}
	if d.EIRCount() < 16 {
		t.Errorf("only %d EIRs selected", d.EIRCount())
	}
	r := d.Summarize()
	// Figure 7 invariants: crossing-free, one RDL, repeaterless links.
	if r.Crossings != 0 {
		t.Errorf("design has %d crossings", r.Crossings)
	}
	if r.RDLLayers != 1 {
		t.Errorf("design needs %d RDLs, want 1", r.RDLLayers)
	}
	if d.Plan.NeedsActiveInterposer() {
		t.Error("design needs an active interposer")
	}
	if r.Bumps != r.Links*linkBits*2 {
		t.Errorf("bump accounting: %d vs %d links", r.Bumps, r.Links)
	}
}

func TestBuildDesignGreedy(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.Search = SearchGreedyTwoHop
	d, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Summarize()
	if !r.AllTwoHop {
		t.Error("greedy design not all-2-hop")
	}
	if r.Crossings != 0 {
		t.Errorf("greedy design has %d crossings", r.Crossings)
	}
	// The paper's 8×8 design uses 24 unidirectional links (§6.6).
	if r.Links != 24 {
		t.Errorf("greedy 8x8 design has %d links, paper reports 24", r.Links)
	}
	if r.Bumps != 6144 {
		t.Errorf("greedy 8x8 design uses %d bumps, paper reports 6144", r.Bumps)
	}
}

func TestBuildDesignRandom(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.Search = SearchRandom
	cfg.MCTS.IterationsPerLevel = 50
	d, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.EIRCount() == 0 {
		t.Error("random search selected nothing")
	}
}

func TestMCTSBeatsRandomDesign(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.MCTS.IterationsPerLevel = 200
	dm, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Search = SearchRandom
	dr, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Eval.Cost > dr.Eval.Cost {
		t.Errorf("MCTS cost %f worse than random %f", dm.Eval.Cost, dr.Eval.Cost)
	}
}

func TestBuildDesignKnightMove(t *testing.T) {
	// §6.8: more CBs than N falls back to the knight-move placement.
	cfg := DefaultDesignConfig()
	cfg.NumCBs = 12
	cfg.Search = SearchGreedyTwoHop
	d, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.CBs) != 12 {
		t.Errorf("got %d CBs, want 12", len(d.CBs))
	}
}

func TestBuildDesignScales(t *testing.T) {
	for _, side := range []int{12, 16} {
		cfg := DefaultDesignConfig()
		cfg.Width, cfg.Height = side, side
		cfg.Search = SearchGreedyTwoHop
		d, err := BuildDesign(cfg)
		if err != nil {
			t.Fatalf("side %d: %v", side, err)
		}
		if d.Summarize().Crossings != 0 {
			t.Errorf("side %d: crossings", side)
		}
	}
}

func TestDesignValidateCatchesSharing(t *testing.T) {
	d := &Design{
		Width: 8, Height: 8,
		CBs: []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5)},
		Groups: map[geom.Point][]geom.Point{
			geom.Pt(1, 1): {geom.Pt(3, 1)},
			geom.Pt(5, 5): {geom.Pt(3, 1)}, // shared — hold on, not on axis of (5,5)
		},
		Plan: interposer.NewPlan(nil),
	}
	if d.Validate() == nil {
		t.Error("invalid design accepted")
	}
	d2 := &Design{
		Width: 8, Height: 8,
		CBs: []geom.Point{geom.Pt(1, 1)},
		Groups: map[geom.Point][]geom.Point{
			geom.Pt(1, 1): {geom.Pt(2, 2)}, // diagonal, not on axis
		},
		Plan: interposer.NewPlan(nil),
	}
	if d2.Validate() == nil {
		t.Error("off-axis EIR accepted")
	}
}

// TestDesignValidateOneEIRPerDirection: the NI has one injection buffer per
// direction, so a group with two EIRs the same way lists a link that would
// carry nothing — and a CB has to be on the mesh to have an NI at all.
func TestDesignValidateOneEIRPerDirection(t *testing.T) {
	cb := geom.Pt(2, 0)
	cases := []struct {
		name string
		cbs  []geom.Point
		eirs []geom.Point
		want string // substring of the error; "" = valid
	}{
		{"one per direction", []geom.Point{cb}, []geom.Point{geom.Pt(4, 0), geom.Pt(0, 0), geom.Pt(2, 2)}, ""},
		{"two to the East", []geom.Point{cb}, []geom.Point{geom.Pt(4, 0), geom.Pt(5, 0)}, "(2,0) has two EIRs to the East"},
		{"two to the South", []geom.Point{cb}, []geom.Point{geom.Pt(2, 3), geom.Pt(0, 0), geom.Pt(2, 1)}, "(2,0) has two EIRs to the South"},
		{"CB off the mesh", []geom.Point{cb, geom.Pt(8, 8)}, nil, "(8,8) outside"},
	}
	for _, tc := range cases {
		d := &Design{
			Width: 8, Height: 8,
			CBs:    tc.cbs,
			Groups: map[geom.Point][]geom.Point{cb: tc.eirs},
			Plan:   interposer.NewPlan(nil),
		}
		err := d.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDesignReportsActiveInterposer(t *testing.T) {
	d := &Design{
		Width: 8, Height: 8,
		CBs:    []geom.Point{geom.Pt(1, 1)},
		Groups: map[geom.Point][]geom.Point{geom.Pt(1, 1): {geom.Pt(4, 1)}},
		Plan: interposer.NewPlan([]interposer.Link{
			{From: geom.Pt(1, 1), To: geom.Pt(4, 1), Bits: 128},
		}),
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("3-hop design should validate (it is legal, just active): %v", err)
	}
	if !d.Summarize().ActiveInterpose {
		t.Error("3-hop link not reported as needing an active interposer")
	}
}

func TestDesignString(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.Search = SearchGreedyTwoHop
	d, err := BuildDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if strings.Count(s, "C") != 8 {
		t.Errorf("floor plan shows %d CBs:\n%s", strings.Count(s, "C"), s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 8 {
		t.Error("floor plan not 8 rows")
	}
}

func TestSearchStrategyString(t *testing.T) {
	if SearchMCTS.String() != "MCTS" || SearchGreedyTwoHop.String() != "GreedyTwoHop" ||
		SearchRandom.String() != "Random" {
		t.Error("strategy names wrong")
	}
}

func TestBuildDesignErrors(t *testing.T) {
	if _, err := BuildDesign(DesignConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDefaultWeightsUsedWhenZero(t *testing.T) {
	cfg := DefaultDesignConfig()
	cfg.Weights = mcts.EvalWeights{}
	cfg.Search = SearchGreedyTwoHop
	if _, err := BuildDesign(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestZeroBudgetKeepsSeed: with IterationsPerLevel left zero, both seeded
// strategies run the default budget with the configured seed, not the
// default seed.
func TestZeroBudgetKeepsSeed(t *testing.T) {
	for _, strategy := range []SearchStrategy{SearchMCTS, SearchRandom} {
		cfg := DefaultDesignConfig()
		cfg.Search = strategy
		cfg.MCTS = mcts.Options{Seed: 7}
		got, err := BuildDesign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MCTS = mcts.DefaultOptions()
		cfg.MCTS.Seed = 7
		want, err := BuildDesign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.SearchIters != want.SearchIters || got.Eval != want.Eval || got.String() != want.String() {
			t.Errorf("%v: a zero budget with seed 7 differs from the default budget with seed 7:\n%s(%+v)\nvs\n%s(%+v)",
				strategy, got, got.Eval, want, want.Eval)
		}
	}
}
