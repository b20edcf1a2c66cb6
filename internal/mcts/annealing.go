package mcts

import (
	"math"
	"math/rand"

	"equinox/internal/geom"
)

// SimulatedAnnealing is the alternative search the paper argues against
// (§4.3): the natural SA formulation works on a per-node bit vector ("is
// this tile an EIR?"), which blows the problem up to 2^64 states and
// generates many invalid intermediates during perturbation. It is included
// as an ablation baseline; with matched evaluation budgets it converges
// more slowly than the tree search, reproducing the paper's argument.
//
// States are repaired to validity before evaluation (invalid bits are
// dropped), so SA pays the formulation tax as wasted perturbations rather
// than as crashes.
func SimulatedAnnealing(p Problem, evaluations int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if evaluations < 1 {
		evaluations = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := p.Width * p.Height
	isCB := p.cbTiles(nil)

	// Start from a random valid-ish bit vector: mark a few tiles near CBs.
	bits := make([]bool, n)
	for _, cb := range p.CBs {
		for k := 0; k < p.MaxEIRsPerCB; k++ {
			d := geom.Direction(1 + rng.Intn(4))
			dist := 1 + rng.Intn(p.HopLimit)
			e := cb.Add(geom.Pt(d.Delta().X*dist, d.Delta().Y*dist))
			if e.In(p.Width, p.Height) && !isCB.Has(e.ID(p.Width)) {
				bits[e.ID(p.Width)] = true
			}
		}
	}

	dirTaken := make([][geom.NumDirections]bool, len(p.CBs))
	decode := func(bs []bool) Assignment {
		// Repair: each set bit becomes an EIR of the nearest CB whose axis
		// it lies on (first match wins); bits that fit no CB are invalid and
		// dropped — the wasted encodings the paper's critique predicts.
		a := make(Assignment, len(p.CBs))
		clear(dirTaken)
		var dirBuf [2]geom.Direction
		for id, set := range bs {
			if !set || isCB.Has(id) {
				continue
			}
			e := geom.FromID(id, p.Width)
			for ci, cb := range p.CBs {
				dirs := geom.AppendDirTowards(dirBuf[:0], cb, e)
				if len(dirs) != 1 || geom.Manhattan(cb, e) > p.HopLimit {
					continue
				}
				if len(a[ci]) >= p.MaxEIRsPerCB || dirTaken[ci][dirs[0]] {
					continue
				}
				a[ci] = append(a[ci], e)
				dirTaken[ci][dirs[0]] = true
				break
			}
		}
		return a
	}

	cur := append([]bool(nil), bits...)
	curCost := p.Evaluate(decode(cur)).Cost
	best := append([]bool(nil), cur...)
	bestCost := curCost

	t0, t1 := 1.0, 0.01
	for i := 0; i < evaluations; i++ {
		temp := t0 * math.Pow(t1/t0, float64(i)/float64(evaluations))
		// Perturb: flip one random bit (the GA/SA mutation of the critique).
		j := rng.Intn(n)
		cand := append([]bool(nil), cur...)
		cand[j] = !cand[j]
		cost := p.Evaluate(decode(cand)).Cost
		if cost < curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
			cur, curCost = cand, cost
			if cost < bestCost {
				best, bestCost = append([]bool(nil), cand...), cost
			}
		}
	}
	a := decode(best)
	return Result{Assignment: a, Eval: p.Evaluate(a), Evaluated: evaluations}, nil
}
