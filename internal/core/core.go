// Package core implements the EquiNox design flow (paper §4): a
// contention-aware N-Queen cache-bank placement selected by the hot-zone
// scoring policy, MCTS-based selection of the equivalent injection router
// (EIR) groups, and the resulting interposer wiring plan — validated
// against the paper's physical constraints (repeaterless link length, RDL
// crossings, µbump budget).
package core

import (
	"context"
	"fmt"

	"equinox/internal/geom"
	"equinox/internal/interposer"
	"equinox/internal/mcts"
	"equinox/internal/obs/trace"
	"equinox/internal/placement"
)

// DesignConfig parameterizes the design flow.
type DesignConfig struct {
	Width, Height int
	NumCBs        int

	// MaxEIRsPerCB and HopLimit bound the search space (§4.3: 4 and 3).
	MaxEIRsPerCB int
	HopLimit     int

	// LinkBits is the width of each EIR interposer link (128 in the paper).
	LinkBits int

	// Search selects the EIR search strategy.
	Search SearchStrategy
	// MCTS controls the tree search when Search == SearchMCTS.
	MCTS mcts.Options
	// Weights tunes the evaluation function.
	Weights mcts.EvalWeights
}

// SearchStrategy selects how EIR groups are chosen.
type SearchStrategy int

// Search strategies.
const (
	// SearchMCTS is the paper's Monte-Carlo Tree Search.
	SearchMCTS SearchStrategy = iota
	// SearchGreedyTwoHop is the fast constructive heuristic matching the
	// design attributes MCTS converges to (all EIRs exactly two hops away).
	SearchGreedyTwoHop
	// SearchRandom is the ablation baseline.
	SearchRandom
)

// String implements fmt.Stringer.
func (s SearchStrategy) String() string {
	switch s {
	case SearchMCTS:
		return "MCTS"
	case SearchGreedyTwoHop:
		return "GreedyTwoHop"
	default:
		return "Random"
	}
}

// DefaultDesignConfig returns the paper's 8×8 / 8-CB design point.
func DefaultDesignConfig() DesignConfig {
	return DesignConfig{
		Width: 8, Height: 8, NumCBs: 8,
		MaxEIRsPerCB: 4, HopLimit: 3,
		LinkBits: 128,
		Search:   SearchMCTS,
		MCTS:     mcts.DefaultOptions(),
		Weights:  mcts.DefaultWeights(),
	}
}

// Design is a complete EquiNox design: the CB placement, the EIR groups,
// and the interposer plan realizing them.
type Design struct {
	Width, Height int
	CBs           []geom.Point
	Groups        map[geom.Point][]geom.Point
	Plan          *interposer.Plan

	PlacementScore int             // hot-zone penalty of the CB placement
	Eval           mcts.Evaluation // search evaluation of the EIR selection
	SearchIters    int
}

// BuildDesign runs the full §4 flow.
func BuildDesign(cfg DesignConfig) (*Design, error) {
	return BuildDesignContext(context.Background(), cfg)
}

// BuildDesignContext is BuildDesign with the placement and EIR-search steps
// recorded as "placement" and "mcts" children of the context's span (if any).
func BuildDesignContext(ctx context.Context, cfg DesignConfig) (*Design, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.NumCBs <= 0 {
		return nil, fmt.Errorf("core: invalid design config %+v", cfg)
	}
	if cfg.LinkBits <= 0 {
		cfg.LinkBits = 128
	}

	// Step 1: contention-aware CB placement (§4.2). N-Queen when the CB
	// count fits the board; knight-move otherwise (§6.8).
	side := cfg.Width
	if cfg.Height < side {
		side = cfg.Height
	}
	kind := placement.NQueen
	if cfg.NumCBs > side {
		kind = placement.KnightMove
	}
	plSpan := trace.StartChild(ctx, "placement")
	pl, err := placement.New(kind, cfg.Width, cfg.Height, cfg.NumCBs)
	plSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}

	// Step 2: EIR selection (§4.3).
	prob := mcts.Problem{
		Width: cfg.Width, Height: cfg.Height, CBs: pl.CBs,
		MaxEIRsPerCB: cfg.MaxEIRsPerCB, HopLimit: cfg.HopLimit,
		Weights: cfg.Weights,
	}
	if prob.MaxEIRsPerCB == 0 {
		prob.MaxEIRsPerCB = 4
	}
	if prob.HopLimit == 0 {
		prob.HopLimit = 3
	}
	if (prob.Weights == mcts.EvalWeights{}) {
		prob.Weights = mcts.DefaultWeights()
	}
	searchSpan := trace.StartChild(ctx, "mcts")
	var res mcts.Result
	switch cfg.Search {
	case SearchGreedyTwoHop:
		res, err = mcts.GreedyTwoHop(prob)
	case SearchRandom:
		iters := cfg.MCTS.IterationsPerLevel
		if iters <= 0 {
			iters = mcts.DefaultOptions().IterationsPerLevel
		}
		res, err = mcts.RandomSearch(prob, iters*len(pl.CBs), cfg.MCTS.Seed)
	default:
		res, err = mcts.Search(prob, cfg.MCTS)
	}
	searchSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: EIR search: %w", err)
	}

	// Step 2b: passive-interposer enforcement. The search space allows
	// 3-hop links, but links longer than two tile pitches need repeaters and
	// hence an active interposer (§3.2.3), which the final design avoids —
	// the paper's converged result places every EIR exactly two hops out
	// (Figure 7). Snap each over-length EIR to the 2-hop tile on its axis,
	// or drop the link when that tile is unavailable.
	if cfg.Search != SearchRandom {
		res.Assignment = refineTwoHop(prob, res.Assignment)
		res.Eval = prob.Evaluate(res.Assignment)
	}

	// Step 3: interposer plan.
	groups := prob.Groups(res.Assignment)
	plan := interposer.EIRPlan(groups, cfg.LinkBits)

	d := &Design{
		Width: cfg.Width, Height: cfg.Height,
		CBs:            pl.CBs,
		Groups:         groups,
		Plan:           plan,
		PlacementScore: placement.Score(pl),
		Eval:           res.Eval,
		SearchIters:    res.Iterations,
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// PlanFor rebuilds the interposer wiring plan implied by an EIR assignment
// (used when reconstructing designs from serialized form).
func PlanFor(groups map[geom.Point][]geom.Point) *interposer.Plan {
	return interposer.EIRPlan(groups, 128)
}

// refineTwoHop enforces the repeaterless link-length budget: every EIR more
// than two hops from its CB is moved to the 2-hop tile on the same axis, or
// removed when that tile is occupied. One-hop EIRs (inside the DAZ) are
// also snapped outward when possible — the evaluation already makes them
// rare.
func refineTwoHop(prob mcts.Problem, a mcts.Assignment) mcts.Assignment {
	w := prob.Width
	taken, isCB := geom.NewTileSet(w*prob.Height), geom.NewTileSet(w*prob.Height)
	for _, cb := range prob.CBs {
		isCB.Add(cb.ID(w))
	}
	for _, g := range a {
		for _, e := range g {
			taken.Add(e.ID(w))
		}
	}
	var dirBuf [2]geom.Direction
	for i, cb := range prob.CBs {
		if i >= len(a) {
			break
		}
		var kept []geom.Point
		for _, e := range a[i] {
			d := geom.Manhattan(cb, e)
			if d == 2 {
				kept = append(kept, e)
				continue
			}
			dirs := geom.AppendDirTowards(dirBuf[:0], cb, e)
			if len(dirs) != 1 {
				continue // malformed (off-axis); drop
			}
			cand := cb.Add(geom.Pt(dirs[0].Delta().X*2, dirs[0].Delta().Y*2))
			if cand.In(w, prob.Height) && !isCB.Has(cand.ID(w)) && !taken.Has(cand.ID(w)) {
				taken.Remove(e.ID(w))
				taken.Add(cand.ID(w))
				kept = append(kept, cand)
				continue
			}
			if d < 2 {
				kept = append(kept, e) // short links are physically fine
				continue
			}
			taken.Remove(e.ID(w)) // over-length and un-snappable: drop the link
		}
		a[i] = kept
	}
	return a
}

// Validate checks the design against the paper's structural and physical
// constraints.
func (d *Design) Validate() error {
	if len(d.CBs) == 0 {
		return fmt.Errorf("core: design has no CBs")
	}
	if err := d.Plan.Validate(d.Width, d.Height); err != nil {
		return err
	}
	used := map[geom.Point]int{}
	isCB := map[geom.Point]bool{}
	for _, cb := range d.CBs {
		if !cb.In(d.Width, d.Height) {
			return fmt.Errorf("core: CB %v outside the %dx%d mesh", cb, d.Width, d.Height)
		}
		isCB[cb] = true
	}
	for cb, eirs := range d.Groups {
		if !isCB[cb] {
			return fmt.Errorf("core: group for non-CB tile %v", cb)
		}
		var taken [geom.NumDirections]bool
		for _, e := range eirs {
			if !e.In(d.Width, d.Height) {
				return fmt.Errorf("core: EIR %v outside mesh", e)
			}
			if isCB[e] {
				return fmt.Errorf("core: EIR %v collides with a CB", e)
			}
			used[e]++
			if used[e] > 1 {
				// §4.3: an EIR is never shared between CBs.
				return fmt.Errorf("core: EIR %v shared by multiple CBs", e)
			}
			dirs := geom.DirTowards(cb, e)
			if len(dirs) != 1 {
				return fmt.Errorf("core: EIR %v not on an axis of CB %v", e, cb)
			}
			// The NI has one injection buffer per direction (§4.4), so a
			// second EIR the same way would be a link that carries nothing.
			if taken[dirs[0]] {
				return fmt.Errorf("core: CB %v has two EIRs to the %v (second: %v)", cb, dirs[0], e)
			}
			taken[dirs[0]] = true
		}
	}
	// Links longer than the repeaterless budget are legal (the paper's
	// search space allows 3-hop links) but force an active interposer;
	// Plan.NeedsActiveInterposer and Report.ActiveInterposer expose this.
	return nil
}

// EIRCount returns the total number of EIRs.
func (d *Design) EIRCount() int {
	n := 0
	for _, eirs := range d.Groups {
		n += len(eirs)
	}
	return n
}

// Report summarizes the design in the terms of §6.6 / Figure 7.
type Report struct {
	CBs             int
	EIRs            int
	Links           int
	AllTwoHop       bool
	Crossings       int
	RDLLayers       int
	Bumps           int
	BumpAreaMM2     float64
	PlacementScore  int
	EvalCost        float64
	ActiveInterpose bool
}

// Summarize builds a Report.
func (d *Design) Summarize() Report {
	ir := d.Plan.Summarize()
	allTwo := true
	for cb, eirs := range d.Groups {
		for _, e := range eirs {
			if geom.Manhattan(cb, e) != 2 {
				allTwo = false
			}
		}
	}
	return Report{
		CBs:             len(d.CBs),
		EIRs:            d.EIRCount(),
		Links:           ir.Links,
		AllTwoHop:       allTwo,
		Crossings:       ir.Crossings,
		RDLLayers:       ir.RDLLayers,
		Bumps:           ir.Bumps,
		BumpAreaMM2:     ir.BumpAreaMM2,
		PlacementScore:  d.PlacementScore,
		EvalCost:        d.Eval.Cost,
		ActiveInterpose: ir.ActiveInterpose,
	}
}

// String renders an ASCII floor plan: C = cache bank, digits = EIR group
// index, . = PE tile.
func (d *Design) String() string {
	grid := make([][]byte, d.Height)
	for y := range grid {
		grid[y] = make([]byte, d.Width)
		for x := range grid[y] {
			grid[y][x] = '.'
		}
	}
	for i, cb := range d.CBs {
		grid[cb.Y][cb.X] = 'C'
		for _, e := range d.Groups[cb] {
			grid[e.Y][e.X] = byte('0' + i%10)
		}
	}
	out := ""
	for y := range grid {
		out += string(grid[y]) + "\n"
	}
	return out
}
