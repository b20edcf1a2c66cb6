package mcts

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/placement"
)

// Differential tests of the table-driven search against the map/slice
// implementation in reference_test.go: same evaluation (==, not ≈), same
// candidate order, same Result from every search entry point.

var altWeights = EvalWeights{Load: 0.7, Hops: 2.1, Crossings: 1.3, Length: 0.9, HotZone: 0.4}

// diffProblems returns the problem grid of the differential tests: mesh
// side × three placements × HopLimit 1–3 × MaxEIRsPerCB 0–4, alternating
// default and non-default weights.
func diffProblems(t testing.TB, sides ...int) []Problem {
	t.Helper()
	var ps []Problem
	for _, side := range sides {
		for _, kind := range []placement.Kind{placement.NQueen, placement.Diamond, placement.Diagonal} {
			pl, err := placement.New(kind, side, side, side)
			if err != nil {
				t.Fatalf("%v %dx%d: %v", kind, side, side, err)
			}
			for hop := 1; hop <= 3; hop++ {
				for maxEIRs := 0; maxEIRs <= 4; maxEIRs++ {
					p := NewProblem(side, side, pl.CBs)
					p.HopLimit, p.MaxEIRsPerCB = hop, maxEIRs
					if len(ps)%2 == 1 {
						p.Weights = altWeights
					}
					if err := p.Validate(); err != nil {
						t.Fatalf("%v %dx%d: %v", kind, side, side, err)
					}
					ps = append(ps, p)
				}
			}
		}
	}
	return ps
}

func describe(p Problem) string {
	return fmt.Sprintf("%dx%d cbs=%v hop=%d max=%d w=%v", p.Width, p.Height, p.CBs, p.HopLimit, p.MaxEIRsPerCB, p.Weights)
}

// randomTaken marks each non-CB tile taken with probability frac, as a map
// for the reference and as a TileSet for the tables.
func randomTaken(p Problem, rng *rand.Rand, frac float64) (map[geom.Point]bool, geom.TileSet) {
	m, s := map[geom.Point]bool{}, geom.NewTileSet(p.Width*p.Height)
	for id := 0; id < p.Width*p.Height; id++ {
		if rng.Float64() < frac {
			m[geom.FromID(id, p.Width)] = true
			s.Add(id)
		}
	}
	return m, s
}

func TestCandidateOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range diffProblems(t, 4, 7, 8, 12) {
		s := newSearch(p)
		for ci := range p.CBs {
			for trial := 0; trial < 4; trial++ {
				tm, ts := randomTaken(p, rng, float64(trial)*0.15)
				want := p.refCandidateGroups(ci, tm)
				if got := s.countLegal(ci, ts); got != len(want) {
					t.Fatalf("%s: CB %d: %d legal groups, reference has %d", describe(p), ci, got, len(want))
				}
				k := int32(-1)
				for i, w := range want {
					k = s.nextLegal(ci, int(k)+1, ts)
					if k < 0 {
						t.Fatalf("%s: CB %d: enumeration ends at %d of %d", describe(p), ci, i, len(want))
					}
					if kth := s.kthLegal(ci, i, ts); kth != k {
						t.Fatalf("%s: CB %d: kthLegal(%d) = %d, walking gives %d", describe(p), ci, i, kth, k)
					}
					if got := groupAt(s, ci, k); !reflect.DeepEqual(got, w) {
						t.Fatalf("%s: CB %d: group %d is %v, reference has %v", describe(p), ci, i, got, w)
					}
				}
			}
		}
	}
}

// groupAt returns group k of CB ci's static order as points.
func groupAt(s *search, ci int, k int32) Group {
	return s.points(&s.cands[ci][k], Group{})
}

// randomLegalAssignment draws one group per CB uniformly from the
// reference's candidates, as RandomSearch does.
func randomLegalAssignment(p Problem, rng *rand.Rand) Assignment {
	taken := map[geom.Point]bool{}
	a := make(Assignment, len(p.CBs))
	for ci := range p.CBs {
		cands := p.refCandidateGroups(ci, taken)
		a[ci] = cands[rng.Intn(len(cands))]
		for _, e := range a[ci] {
			taken[e] = true
		}
	}
	return a
}

func TestEvaluateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for _, p := range diffProblems(t, 4, 6, 8, 11, 16) {
		s := newSearch(p)
		trials := 30
		if p.Width > 11 {
			trials = 3 // the reference needs ~2 ms per 16×16 assignment
		}
		for trial := 0; trial < trials; trial++ {
			a := randomLegalAssignment(p, rng)
			want := p.refEvaluate(a)
			if got := p.Evaluate(a); got != want {
				t.Fatalf("%s: Evaluate(%v) = %+v, reference %+v", describe(p), a, got, want)
			}
			// The searches' table-driven evaluation of the same assignment.
			for ci, g := range a {
				k := int32(0)
				for !reflect.DeepEqual(groupAt(s, ci, k), Group(g)) {
					k++
				}
				s.choice[ci] = k
			}
			if got := s.evaluate(); got != want {
				t.Fatalf("%s: table evaluation of %v = %+v, reference %+v", describe(p), a, got, want)
			}
			checked++
		}
	}
	if checked < 5000 {
		t.Errorf("only %d random legal assignments checked, want ≥ 5000", checked)
	}
}

// TestEvaluateMatchesReferenceOffPolicy covers assignments no search
// produces: the hand-built ones of mcts_test.go, and illegal ones (shared,
// off-axis, doubled, out-of-mesh and CB-tile EIRs, short and long
// assignments, an unvalidated problem) that Evaluate must still score as
// the reference does.
func TestEvaluateMatchesReferenceOffPolicy(t *testing.T) {
	one := NewProblem(8, 8, []geom.Point{geom.Pt(4, 4)})
	two := NewProblem(8, 8, []geom.Point{geom.Pt(3, 3), geom.Pt(4, 4)})
	paper := paperProblem(t)
	odd := NewProblem(8, 8, []geom.Point{geom.Pt(3, 3), geom.Pt(9, 2), geom.Pt(3, 3)}) // does not validate
	odd.Weights = altWeights
	cases := []struct {
		p Problem
		a Assignment
	}{
		{paper, make(Assignment, len(paper.CBs))},
		{paper, nil},
		{one, Assignment{{geom.Pt(5, 4), geom.Pt(3, 4), geom.Pt(4, 5), geom.Pt(4, 3)}}},
		{one, Assignment{{geom.Pt(6, 4), geom.Pt(2, 4), geom.Pt(4, 6), geom.Pt(4, 2)}}},
		{one, Assignment{{geom.Pt(7, 4), geom.Pt(1, 4), geom.Pt(4, 7), geom.Pt(4, 1)}}},
		{two, Assignment{{geom.Pt(5, 3)}, {geom.Pt(4, 2)}}},
		{two, Assignment{{geom.Pt(1, 3)}, {geom.Pt(6, 4)}}},
		{two, Assignment{{geom.Pt(3, 5)}, {geom.Pt(3, 5), geom.Pt(6, 4)}}},                  // shared EIR
		{two, Assignment{{geom.Pt(5, 5), geom.Pt(1, 3)}, {geom.Pt(6, 6)}}},                  // off-axis EIRs
		{two, Assignment{{geom.Pt(5, 3), geom.Pt(6, 3)}, {geom.Pt(4, 6)}}},                  // two EIRs in one direction
		{two, Assignment{{geom.Pt(4, 4), geom.Pt(3, 3)}, {geom.Pt(3, 3)}}},                  // EIRs on CB tiles
		{two, Assignment{{geom.Pt(-1, 3), geom.Pt(3, 9)}, {geom.Pt(9, 4)}}},                 // EIRs outside the mesh
		{two, Assignment{{geom.Pt(5, 3)}, {geom.Pt(4, 2)}, {geom.Pt(0, 0)}}},                // longer than CBs
		{two, Assignment{{geom.Pt(4, 3), geom.Pt(2, 3), geom.Pt(3, 2), geom.Pt(3, 5)}, {}}}, // crossing its neighbour's tile
		{odd, Assignment{{geom.Pt(5, 3)}, {geom.Pt(7, 2)}, {geom.Pt(3, 1), geom.Pt(5, 3)}}},
	}
	for i, c := range cases {
		if got, want := c.p.Evaluate(c.a), c.p.refEvaluate(c.a); got != want {
			t.Errorf("case %d: Evaluate(%v) = %+v, reference %+v", i, c.a, got, want)
		}
	}
}

// TestSearchesMatchReference runs the whole problem grid on the small
// meshes and every third problem of it on the large ones, with a budget
// that keeps the reference affordable: it costs ~0.3 ms per iteration at
// 8×8 and grows with the mesh.
func TestSearchesMatchReference(t *testing.T) {
	sides := []int{4, 5, 8, 12, 16}
	if testing.Short() {
		sides = []int{4, 8}
	}
	for _, side := range sides {
		for i, p := range diffProblems(t, side) {
			if side > 8 && i%3 != 0 {
				continue
			}
			seed := int64(1 + i%5)
			checkSearchMatches(t, p, Options{IterationsPerLevel: max(4, 1200/(side*side)), ExplorationC: 0.5 + float64(seed)/4, Seed: seed})
		}
	}
}

// TestSearchMatchesReferenceFullBudget is the paper's problem at the
// default 400 iterations per level, the budget every exported design uses.
func TestSearchMatchesReferenceFullBudget(t *testing.T) {
	seeds := []int64{1, 7} // the seeds bench/golden.json pins
	if testing.Short() {
		seeds = seeds[:1]
	}
	p := paperProblem(t)
	for _, seed := range seeds {
		opts := DefaultOptions()
		opts.Seed = seed
		got, err := Search(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := refSearch(p, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Search = %+v, reference %+v", seed, got, want)
		}
	}
}

// checkSearchMatches compares every search entry point with its reference
// on one problem.
func checkSearchMatches(t testing.TB, p Problem, opts Options) {
	t.Helper()
	type result struct {
		Result
		err bool
	}
	pack := func(r Result, err error) result { return result{r, err != nil} }
	samples := 2 * opts.IterationsPerLevel
	for _, c := range []struct {
		name      string
		got, want result
	}{
		{"Search", pack(Search(p, opts)), pack(refSearch(p, opts))},
		{"RandomSearch", pack(RandomSearch(p, samples, opts.Seed)), pack(refRandomSearch(p, samples, opts.Seed))},
		{"SimulatedAnnealing", pack(SimulatedAnnealing(p, samples, opts.Seed)), pack(refSimulatedAnnealing(p, samples, opts.Seed))},
		{"GreedyTwoHop", pack(GreedyTwoHop(p)), pack(refGreedyTwoHop(p))},
		{"PureGreedyRollout", result{Result: Result{Assignment: PureGreedyRollout(p)}}, result{Result: Result{Assignment: refPureGreedyRollout(p)}}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s, %+v: %s = %+v, reference %+v", describe(p), opts, c.name, c.got, c.want)
		}
	}
}

// FuzzSearchMatchesReference drives every search entry point on arbitrary
// small problems: mesh side, CB subset, hop limit, group cap, seed and
// budget all come from the fuzz input.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add(uint8(8), []byte{2, 12, 23, 25, 38, 40, 51, 61}, uint8(3), uint8(4), int64(42), uint8(20))
	f.Add(uint8(4), []byte{0, 5, 10, 15}, uint8(1), uint8(2), int64(7), uint8(40))
	f.Add(uint8(3), []byte{4}, uint8(9), uint8(0), int64(-1), uint8(1))
	f.Add(uint8(7), []byte{0, 1, 2, 3, 4, 80, 79, 55, 45}, uint8(2), uint8(3), int64(1), uint8(7))
	f.Fuzz(func(t *testing.T, side uint8, tiles []byte, hop, maxEIRs uint8, seed int64, budget uint8) {
		w := 2 + int(side)%8 // 2…9
		var cbs []geom.Point
		for _, b := range tiles {
			cb := geom.FromID(int(b)%(w*w), w)
			if len(cbs) < 8 && !slices.Contains(cbs, cb) {
				cbs = append(cbs, cb)
			}
		}
		if len(cbs) == 0 {
			return
		}
		p := NewProblem(w, w, cbs)
		p.HopLimit = 1 + int(hop)%4
		p.MaxEIRsPerCB = int(maxEIRs) % 5
		if seed%2 == 0 {
			p.Weights = altWeights
		}
		checkSearchMatches(t, p, Options{IterationsPerLevel: 1 + int(budget)%40, ExplorationC: 1, Seed: seed})
	})
}
