package mcts

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/placement"
)

// The quality oracle of the EIR searches: an exact minimum of the cost
// function they all optimize, over the same search space.

// exhaustive returns a least-cost legal assignment of p — one group per CB
// from newSearch's candidate lists, no EIR shared — and the number of
// complete assignments it scored. It is a depth-first branch-and-bound over
// the CBs that skips every subtree whose lower bound exceeds the best cost
// found so far, starting from GreedyTwoHop's: greedy's own leaf always
// survives, so an error here means greedy left the search space.
func exhaustive(p Problem) (Result, int, error) { return walk(p, true) }

// walk is exhaustive, or with prune false a plain enumeration of every
// legal assignment. Both return the first least-cost leaf in the walk
// order: the bound never cuts a subtree holding a leaf of cost ≤ the
// optimum.
func walk(p Problem, prune bool) (Result, int, error) {
	if err := p.Validate(); err != nil {
		return Result{}, 0, err
	}
	g, err := GreedyTwoHop(p)
	if err != nil {
		return Result{}, 0, err
	}
	w := &walker{search: newSearch(p), prune: prune, bound: g.Eval.Cost, best: Evaluation{Cost: math.Inf(1)}}
	if !prune {
		w.bound = math.Inf(1)
	}
	n := len(p.CBs)
	w.bestChoice = make([]int32, n)
	w.restLoad2, w.restHops2, w.restLen = make([]int, n+1), make([]int, n+1), make([]int, n+1)
	w.restLen[n] = math.MaxInt32
	for ci := n - 1; ci >= 0; ci-- {
		load2, hops2 := math.MaxInt, math.MaxInt
		for k := range w.cands[ci] {
			c := &w.cands[ci][k]
			load2, hops2 = min(load2, int(c.maxLoad2)), min(hops2, c.ev.hops2)
		}
		w.sumLoad2 += int(w.cands[ci][0].sumLoad2) // the same for every group: each flow injects once
		w.restLoad2[ci] = max(w.restLoad2[ci+1], load2)
		w.restHops2[ci] = w.restHops2[ci+1] + hops2
		w.restLen[ci] = w.restLen[ci+1]
		for _, tile := range w.optTile[w.segBase[ci]:w.segBase[ci+1]] {
			w.restLen[ci] = min(w.restLen[ci], geom.Manhattan(p.CBs[ci], geom.FromID(int(tile), p.Width)))
		}
	}
	w.dfs(0, totals{}, 0)
	if math.IsInf(w.best.Cost, 1) {
		return Result{}, w.leaves, fmt.Errorf("no legal assignment costs at most GreedyTwoHop's %v", g.Eval.Cost)
	}
	copy(w.choice, w.bestChoice)
	return Result{Assignment: w.assignment(), Eval: w.best}, w.leaves, nil
}

type walker struct {
	*search
	prune      bool
	bound      float64 // the cost a leaf must not exceed to be worth reaching
	best       Evaluation
	bestChoice []int32
	leaves     int

	// Bound tables, per CB ci over the CBs from ci on: the largest of their
	// least maxLoad2, the sum of their least hops2 and their shortest
	// candidate link. sumLoad2 is the whole problem's, fixed.
	restLoad2, restHops2, restLen []int
	sumLoad2                      int
}

// dfs extends the groups chosen for CBs before ci, whose totals are t and
// whose links cross crossings times, in every legal way.
func (w *walker) dfs(ci int, t totals, crossings int) {
	if ci == len(w.choice) {
		w.leaves++
		if ev := w.p.finish(t, w.isCB, crossings); ev.Cost < w.best.Cost {
			w.best = ev
			copy(w.bestChoice, w.choice)
			w.bound = min(w.bound, ev.Cost)
		}
		return
	}
	if w.prune && w.lowerBound(ci, t, crossings) > w.bound {
		return
	}
	words := len(w.present)
	base := uint(w.segBase[ci])
	before := w.present[:(base+63)>>6]
	taken := w.takenMask(ci, w.taken)
	for k, mask := range w.masks[ci] {
		if mask&taken != 0 {
			continue
		}
		c := &w.cands[ci][k]
		n := crossings
		for _, e := range c.eirs[:c.n] {
			row := w.cross[int(e.seg)*words:][:len(before)]
			for i, m := range before {
				n += bits.OnesCount64(row[i] & m)
			}
		}
		next := t
		next.add(&c.ev)
		next.maxLoad2 = max(next.maxLoad2, int(c.maxLoad2))
		next.sumLoad2 += int(c.sumLoad2)
		w.choose(ci, int32(k), w.taken)
		w.flip(base, mask)
		w.dfs(ci+1, next, n)
		w.flip(base, mask)
		for _, e := range c.eirs[:c.n] {
			w.taken.Remove(int(e.tile))
		}
	}
}

// flip toggles in present the links of mask, a group's mask of the CB
// whose links start at base.
func (w *walker) flip(base uint, mask uint64) {
	if mask == 0 {
		return
	}
	w.present[base>>6] ^= mask << (base & 63)
	if i := int(base>>6) + 1; i < len(w.present) {
		w.present[i] ^= mask >> (64 - base&63)
	}
}

// lowerBound is a cost no completion of the groups before ci undercuts.
// Each term of finish is bounded on its own, and finish is monotone in
// each (so its float rounding is too):
//   - MaxLoad is a maximum over injectors, each CB's at least its least
//     maxLoad2, over a load sum that no choice changes;
//   - hops add up per CB;
//   - crossings and hot-zone EIRs only grow (the empty group adds none);
//   - the length term is a mean over links, so adding links can lower it
//     to the shortest link left but no further.
//
// With no link yet the crossing, length and hot-zone terms are bounded by 0.
func (w *walker) lowerBound(ci int, t totals, crossings int) float64 {
	lb := totals{hops2: t.hops2 + w.restHops2[ci], maxLoad2: max(t.maxLoad2, w.restLoad2[ci]), sumLoad2: w.sumLoad2, hot: t.hot}
	if t.links > 0 {
		lb.links, lb.length = t.links, t.length
		if r := w.restLen[ci]; r*t.links < t.length {
			lb.links, lb.length = 1, r
		}
	}
	return w.p.finish(lb, w.isCB, crossings).Cost
}

// leafBound is the number of ways to pick one candidate group per CB, legal
// or not: an upper bound on the leaves an unpruned walk visits.
func leafBound(p Problem) float64 {
	n := 1.0
	for _, c := range newSearch(p).cands {
		n *= float64(len(c))
	}
	return n
}

// nQueenProblem is the standard problem of an N-Queen placement under
// HopLimit hop.
func nQueenProblem(sol []int, hop int) Problem {
	p := NewProblem(len(sol), len(sol), placement.FromQueenSolution(sol).CBs)
	p.HopLimit = hop
	return p
}

// symmetry maps pt by symmetry k of the n×n square: a reflection when k&4
// is set, then k&3 quarter turns.
func symmetry(k, n int, pt geom.Point) geom.Point {
	x, y := pt.X, pt.Y
	if k&4 != 0 {
		x = n - 1 - x
	}
	for range k & 3 {
		x, y = n-1-y, x
	}
	return geom.Pt(x, y)
}

// orbitKey names the symmetry orbit of an n×n CB set: the least of its
// eight images, as sorted tile IDs.
func orbitKey(n int, cbs []geom.Point) string {
	var key []int
	for k := range 8 {
		ids := make([]int, len(cbs))
		for i, cb := range cbs {
			ids[i] = symmetry(k, n, cb).ID(n)
		}
		slices.Sort(ids)
		if key == nil || slices.Compare(ids, key) < 0 {
			key = ids
		}
	}
	return fmt.Sprint(key)
}

// TestExhaustiveMatchesEnumeration: the bound cuts nothing that matters.
// On both 4×4 N-Queen placements the pruned walk returns exactly the
// unpruned enumeration's optimum, and that enumeration visits every legal
// assignment.
func TestExhaustiveMatchesEnumeration(t *testing.T) {
	legal := map[int]int{2: 29375, 3: 73826}
	for _, sol := range placement.NQueenSolutions(4) {
		for hop, want := range legal {
			p := nQueenProblem(sol, hop)
			all, n, err := walk(p, false)
			if err != nil {
				t.Fatal(err)
			}
			if n != want {
				t.Errorf("%s: %d legal assignments, want %d", describe(p), n, want)
			}
			got, pruned, err := exhaustive(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, all) {
				t.Errorf("%s: pruned optimum %+v, enumeration's %+v", describe(p), got, all)
			}
			if ev := p.Evaluate(got.Assignment); ev != got.Eval {
				t.Errorf("%s: the walk scores its optimum %+v, Evaluate %+v", describe(p), got.Eval, ev)
			}
			t.Logf("%s: optimum %.4f, %d of %d leaves scored", describe(p), got.Eval.Cost, pruned, n)
		}
	}
}

// TestSearchesNeverBeatOptimum holds every search to the exact optimum on
// every 4×4, 5×5 and 6×6 N-Queen placement, HopLimit 1–3. No strategy may
// undercut it (that would be a design outside the problem), a larger
// HopLimit may not raise it, and GreedyTwoHop reaches it whenever 2-hop
// EIRs are legal. The optimum is solved once per symmetry orbit, which
// TestExhaustiveSymmetric shows is enough.
func TestSearchesNeverBeatOptimum(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		prev := map[string]float64{}
		for hop := 1; hop <= 3; hop++ {
			opt := map[string]float64{}
			for _, sol := range placement.NQueenSolutions(n) {
				p := nQueenProblem(sol, hop)
				key := orbitKey(n, p.CBs)
				if _, ok := opt[key]; !ok {
					o, _, err := exhaustive(p)
					if err != nil {
						t.Fatalf("%s: %v", describe(p), err)
					}
					opt[key] = o.Eval.Cost
					if last, ok := prev[key]; ok && o.Eval.Cost > last {
						t.Errorf("%s: optimum %.4f above HopLimit %d's %.4f", describe(p), o.Eval.Cost, hop-1, last)
					}
				}
				check := func(name string, r Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %s: %v", describe(p), name, err)
					}
					if r.Eval.Cost < opt[key] {
						t.Errorf("%s: %s cost %.4f below the optimum %.4f", describe(p), name, r.Eval.Cost, opt[key])
					}
				}
				for seed := int64(1); seed <= 3; seed++ {
					r, err := Search(p, Options{Seed: seed})
					check(fmt.Sprintf("Search seed %d", seed), r, err)
				}
				r, err := RandomSearch(p, DefaultOptions().IterationsPerLevel*len(p.CBs), 1)
				check("RandomSearch", r, err)
				g, err := GreedyTwoHop(p)
				check("GreedyTwoHop", g, err)
				if hop >= 2 && g.Eval.Cost != opt[key] {
					t.Errorf("%s: GreedyTwoHop cost %.4f, optimum %.4f", describe(p), g.Eval.Cost, opt[key])
				}
			}
			prev = opt
		}
	}
}

// TestExhaustiveSymmetric: the optimum's cost is a property of the
// placement up to the eight symmetries of the square mesh, whatever order
// the images list their CBs in, under default and non-default weights.
func TestExhaustiveSymmetric(t *testing.T) {
	for _, n := range []int{4, 5} {
		sol := placement.NQueenSolutions(n)[0]
		for hop := 1; hop <= 3; hop++ {
			for _, w := range []EvalWeights{DefaultWeights(), altWeights} {
				var want float64
				for k := range 8 {
					p := nQueenProblem(sol, hop)
					p.Weights = w
					p.CBs = slices.Clone(p.CBs)
					for i, cb := range p.CBs {
						p.CBs[i] = symmetry(k, n, cb)
					}
					o, _, err := exhaustive(p)
					if err != nil {
						t.Fatalf("%s: %v", describe(p), err)
					}
					if k == 0 {
						want = o.Eval.Cost
					} else if o.Eval.Cost != want {
						t.Errorf("%s: optimum %v, the identity image's %v", describe(p), o.Eval.Cost, want)
					}
				}
			}
		}
	}
}
