package mcts

import (
	"reflect"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/placement"
)

func paperProblem(t testing.TB) Problem {
	t.Helper()
	pl, err := placement.New(placement.NQueen, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return NewProblem(8, 8, pl.CBs)
}

func TestValidate(t *testing.T) {
	p := NewProblem(8, 8, []geom.Point{geom.Pt(1, 1)})
	if err := p.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := p
	bad.CBs = nil
	if bad.Validate() == nil {
		t.Error("no-CB problem accepted")
	}
	bad2 := p
	bad2.HopLimit = 0
	if bad2.Validate() == nil {
		t.Error("zero hop limit accepted")
	}
	bad3 := p
	bad3.CBs = []geom.Point{geom.Pt(9, 9)}
	if bad3.Validate() == nil {
		t.Error("CB outside mesh accepted")
	}
	bad4 := p
	bad4.MaxEIRsPerCB = 5
	if bad4.Validate() == nil {
		t.Error("MaxEIRsPerCB > 4 accepted")
	}
	bad5 := p
	bad5.CBs = []geom.Point{geom.Pt(1, 1), geom.Pt(2, 5), geom.Pt(1, 1)}
	if bad5.Validate() == nil {
		t.Error("duplicate CB accepted")
	}
}

func TestCandidateGroups(t *testing.T) {
	p := NewProblem(8, 8, []geom.Point{geom.Pt(4, 4)})
	s := newSearch(p)
	// 4 directions × (3 distances + none) = 4^4 = 256 combinations.
	if got := s.countLegal(0, s.taken); got != 256 || len(s.cands[0]) != 256 {
		t.Errorf("got %d legal of %d candidate groups, want 256", got, len(s.cands[0]))
	}
	// Corner CB: East and South have 3 options each, West/North none.
	pc := NewProblem(8, 8, []geom.Point{geom.Pt(0, 0)})
	if got := len(newSearch(pc).cands[0]); got != 16 {
		t.Errorf("corner CB: got %d groups, want 16", got)
	}
	// Taken positions are excluded.
	taken := geom.NewTileSet(64)
	for _, e := range []geom.Point{geom.Pt(5, 4), geom.Pt(6, 4), geom.Pt(7, 4)} {
		taken.Add(e.ID(8))
	}
	if got := s.countLegal(0, taken); got != 64 { // East direction now has no options: 1×4×4×4
		t.Errorf("with taken east: got %d groups, want 64", got)
	}
	for k := s.nextLegal(0, 0, taken); k >= 0; k = s.nextLegal(0, int(k)+1, taken) {
		c := &s.cands[0][k]
		for _, e := range c.eirs[:c.n] {
			if taken.Has(int(e.tile)) {
				t.Fatalf("group %d uses taken EIR tile %d", k, e.tile)
			}
		}
	}
}

func TestCandidateGroupsExcludeCBs(t *testing.T) {
	p := NewProblem(8, 8, []geom.Point{geom.Pt(4, 4), geom.Pt(6, 4)})
	for _, c := range newSearch(p).cands[0] {
		for _, e := range c.eirs[:c.n] {
			if int(e.tile) == geom.Pt(6, 4).ID(8) {
				t.Fatal("candidate group contains a CB tile")
			}
		}
	}
}

func TestEvaluateNoEIRs(t *testing.T) {
	p := paperProblem(t)
	empty := make(Assignment, len(p.CBs))
	ev := p.Evaluate(empty)
	if ev.Links != 0 || ev.Crossings != 0 || ev.LinkLength != 0 {
		t.Errorf("empty assignment has physical cost: %+v", ev)
	}
	if ev.Cost <= 0 {
		t.Errorf("empty assignment should be penalized, cost=%f", ev.Cost)
	}
}

func TestEvaluatePrefersTwoHopOverOneHop(t *testing.T) {
	// A single CB in the middle: 2-hop EIRs clear the hot zone; 1-hop EIRs
	// sit in the DAZ and must score worse.
	cb := geom.Pt(4, 4)
	p := NewProblem(8, 8, []geom.Point{cb})
	oneHop := Assignment{{geom.Pt(5, 4), geom.Pt(3, 4), geom.Pt(4, 5), geom.Pt(4, 3)}}
	twoHop := Assignment{{geom.Pt(6, 4), geom.Pt(2, 4), geom.Pt(4, 6), geom.Pt(4, 2)}}
	e1 := p.Evaluate(oneHop)
	e2 := p.Evaluate(twoHop)
	if e2.Cost >= e1.Cost {
		t.Errorf("2-hop cost %f should beat 1-hop cost %f", e2.Cost, e1.Cost)
	}
	if e1.HotEIRs != 4 || e2.HotEIRs != 0 {
		t.Errorf("hot-zone EIR counts wrong: 1-hop=%d 2-hop=%d", e1.HotEIRs, e2.HotEIRs)
	}
}

func TestEvaluatePrefersTwoHopOverThreeHop(t *testing.T) {
	cb := geom.Pt(4, 4)
	p := NewProblem(8, 8, []geom.Point{cb})
	twoHop := Assignment{{geom.Pt(6, 4), geom.Pt(2, 4), geom.Pt(4, 6), geom.Pt(4, 2)}}
	threeHop := Assignment{{geom.Pt(7, 4), geom.Pt(1, 4), geom.Pt(4, 7), geom.Pt(4, 1)}}
	e2 := p.Evaluate(twoHop)
	e3 := p.Evaluate(threeHop)
	if e2.Cost >= e3.Cost {
		t.Errorf("2-hop cost %f should beat 3-hop cost %f", e2.Cost, e3.Cost)
	}
}

func TestEvaluateCountsCrossings(t *testing.T) {
	// Two diagonal-adjacent CBs with crossing links (Figure 4's red-circled
	// diamond hazard): a horizontal link from the upper CB crossing a
	// vertical link from the lower CB.
	p := NewProblem(8, 8, []geom.Point{geom.Pt(3, 3), geom.Pt(4, 4)})
	crossing := Assignment{
		{geom.Pt(5, 3)}, // east 2-hop from (3,3): segment (3,3)-(5,3)
		{geom.Pt(4, 2)}, // north 2-hop from (4,4): segment (4,4)-(4,2)
	}
	ev := p.Evaluate(crossing)
	if ev.Crossings != 1 {
		t.Errorf("Crossings = %d, want 1", ev.Crossings)
	}
	separated := Assignment{
		{geom.Pt(1, 3)}, // west
		{geom.Pt(6, 4)}, // east
	}
	ev2 := p.Evaluate(separated)
	if ev2.Crossings != 0 {
		t.Errorf("separated crossings = %d, want 0", ev2.Crossings)
	}
	if ev2.Cost >= ev.Cost {
		t.Errorf("crossing-free cost %f should beat crossing cost %f", ev2.Cost, ev.Cost)
	}
}

func TestInjectorsForBufferPolicy(t *testing.T) {
	cb := geom.Pt(4, 4)
	eirs := eirsByDir{
		geom.Local: cb,
		geom.East:  geom.Pt(6, 4),
		geom.West:  geom.Pt(2, 4),
		geom.South: geom.Pt(4, 6),
		geom.North: geom.Pt(4, 2),
	}
	// On-axis destination: exactly one EIR.
	inj, n := injectorsFor(cb, &eirs, geom.Pt(7, 4))
	if n != 1 || eirs[inj[0]] != geom.Pt(6, 4) {
		t.Errorf("on-axis: got %v", inj[:n])
	}
	// Quadrant destination: two candidates (round-robin).
	inj, n = injectorsFor(cb, &eirs, geom.Pt(7, 7))
	if n != 2 || inj[0] != geom.East || inj[1] != geom.South {
		t.Errorf("quadrant: got %v", inj[:n])
	}
	// Destination nearer than the EIR offset: EIR overshoots, use local.
	inj, n = injectorsFor(cb, &eirs, geom.Pt(5, 4))
	if n != 1 || eirs[inj[0]] != cb {
		t.Errorf("overshoot: got %v, want local", inj[:n])
	}
	// Quadrant destination at (5,5): both EIRs overshoot → local.
	inj, n = injectorsFor(cb, &eirs, geom.Pt(5, 5))
	if n != 1 || eirs[inj[0]] != cb {
		t.Errorf("close quadrant: got %v, want local", inj[:n])
	}
}

func TestSearchPaperInvariants(t *testing.T) {
	// The paper's Figure 7 observations: on 8×8 with the N-Queen placement,
	// MCTS converges to EIRs exactly 2 hops from their CB and a completely
	// crossing-free wiring (one RDL suffices).
	p := paperProblem(t)
	res, err := Search(p, Options{IterationsPerLevel: 300, ExplorationC: 1.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.Crossings != 0 {
		t.Errorf("MCTS design has %d crossings, want 0", res.Eval.Crossings)
	}
	if res.Eval.Links == 0 {
		t.Fatal("MCTS selected no EIRs at all")
	}
	groups := p.Groups(res.Assignment)
	total, twoHop := 0, 0
	used := map[geom.Point]int{}
	for cb, eirs := range groups {
		for _, e := range eirs {
			total++
			used[e]++
			if geom.Manhattan(cb, e) == 2 {
				twoHop++
			}
			if geom.Manhattan(cb, e) > p.HopLimit {
				t.Errorf("EIR %v is %d hops from CB %v (limit %d)", e, geom.Manhattan(cb, e), cb, p.HopLimit)
			}
		}
	}
	for e, n := range used {
		if n > 1 {
			t.Errorf("EIR %v shared by %d CBs", e, n)
		}
	}
	if float64(twoHop) < 0.75*float64(total) {
		t.Errorf("only %d/%d EIRs are 2-hop; paper finds all-2-hop designs", twoHop, total)
	}
	// The paper's 8×8 design uses 24 links for 8 CBs (§6.6), i.e. ~3 per CB;
	// boundary CBs get fewer. Require at least 2 per CB on average.
	if total < 2*len(p.CBs) {
		t.Errorf("selected %d EIRs for %d CBs; expected ≥2 per CB on average", total, len(p.CBs))
	}
	// Near-optimality: not worse than the all-2-hop greedy yardstick.
	greedy, err := GreedyTwoHop(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.Cost > greedy.Eval.Cost*1.02 {
		t.Errorf("MCTS cost %.4f worse than greedy yardstick %.4f", res.Eval.Cost, greedy.Eval.Cost)
	}
}

func TestSearchDeterministic(t *testing.T) {
	p := paperProblem(t)
	opts := Options{IterationsPerLevel: 100, ExplorationC: 1.0, Seed: 3}
	a, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Assignment) != len(b.Assignment) {
		t.Fatal("nondeterministic assignment length")
	}
	for i := range a.Assignment {
		if len(a.Assignment[i]) != len(b.Assignment[i]) {
			t.Fatalf("nondeterministic group %d", i)
		}
		for j := range a.Assignment[i] {
			if a.Assignment[i][j] != b.Assignment[i][j] {
				t.Fatalf("nondeterministic EIR at %d/%d", i, j)
			}
		}
	}
}

func TestSearchBeatsRandom(t *testing.T) {
	// With matched evaluation budgets MCTS should not lose to pure random
	// sampling (the paper argues GA/SA/random formulations are weaker).
	p := paperProblem(t)
	mctsRes, err := Search(p, Options{IterationsPerLevel: 200, ExplorationC: 1.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	randRes, err := RandomSearch(p, mctsRes.Evaluated, 11)
	if err != nil {
		t.Fatal(err)
	}
	if mctsRes.Eval.Cost > randRes.Eval.Cost*1.05 {
		t.Errorf("MCTS cost %f much worse than random %f", mctsRes.Eval.Cost, randRes.Eval.Cost)
	}
}

func TestGreedyTwoHop(t *testing.T) {
	p := paperProblem(t)
	res, err := GreedyTwoHop(p)
	if err != nil {
		t.Fatal(err)
	}
	groups := p.Groups(res.Assignment)
	for cb, eirs := range groups {
		for _, e := range eirs {
			if geom.Manhattan(cb, e) != 2 {
				t.Errorf("greedy EIR %v not 2 hops from %v", e, cb)
			}
		}
	}
	if res.Eval.HotEIRs != 0 {
		t.Errorf("greedy design has %d hot-zone EIRs", res.Eval.HotEIRs)
	}
}

func TestSearchScales12x12(t *testing.T) {
	pl, err := placement.New(placement.NQueen, 12, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(12, 12, pl.CBs)
	res, err := Search(p, Options{IterationsPerLevel: 120, ExplorationC: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.Links == 0 {
		t.Error("no EIRs selected on 12x12")
	}
	if res.Eval.Crossings > 1 {
		t.Errorf("12x12 design has %d crossings", res.Eval.Crossings)
	}
}

func TestGroupsMap(t *testing.T) {
	p := NewProblem(8, 8, []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5)})
	a := Assignment{{geom.Pt(3, 1)}, {geom.Pt(5, 3)}}
	m := p.Groups(a)
	if len(m) != 2 {
		t.Fatalf("got %d groups", len(m))
	}
	if m[geom.Pt(1, 1)][0] != geom.Pt(3, 1) {
		t.Error("group mapping wrong")
	}
}

func TestDefaultOptionsAndPureGreedy(t *testing.T) {
	o := DefaultOptions()
	if o.IterationsPerLevel <= 0 || o.ExplorationC <= 0 {
		t.Error("bad default options")
	}
	p := paperProblem(t)
	a := PureGreedyRollout(p)
	if len(a) != len(p.CBs) {
		t.Fatalf("rollout covers %d CBs", len(a))
	}
	ev := p.Evaluate(a)
	if ev.Links == 0 || ev.Cost <= 0 {
		t.Error("greedy rollout empty")
	}
}

// TestSearchKeepsSeedWithDefaultBudget: a zero budget selects the default
// budget (and exploration constant), not the default seed.
func TestSearchKeepsSeedWithDefaultBudget(t *testing.T) {
	p := NewProblem(6, 6, []geom.Point{geom.Pt(1, 0), geom.Pt(3, 1), geom.Pt(5, 2), geom.Pt(0, 3), geom.Pt(2, 4), geom.Pt(4, 5)})
	def := DefaultOptions()
	results := map[string]bool{}
	for _, seed := range []int64{7, 8} {
		got, err := Search(p, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if want := def.IterationsPerLevel * len(p.CBs); got.Iterations != want {
			t.Errorf("seed %d: %d iterations with a zero budget, want the default %d", seed, got.Iterations, want)
		}
		want, err := Search(p, Options{IterationsPerLevel: def.IterationsPerLevel, ExplorationC: def.ExplorationC, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: zero budget gave %+v, the explicit default budget with this seed gives %+v", seed, got, want)
		}
		results[fingerprint(got.Assignment)] = true
	}
	// A non-zero exploration constant survives the defaulting too.
	got, _ := Search(p, Options{ExplorationC: 0.25, Seed: 7})
	want, _ := Search(p, Options{IterationsPerLevel: def.IterationsPerLevel, ExplorationC: 0.25, Seed: 7})
	if !reflect.DeepEqual(got, want) {
		t.Error("zero budget overwrote the caller's exploration constant")
	}
	if len(results) != 2 {
		t.Error("seeds 7 and 8 gave the same assignment: the seed is not reaching the search")
	}
}

// TestAllocationPins: an evaluation allocates nothing, and a search only
// its tables, scratch and one node slab — nothing per iteration.
func TestAllocationPins(t *testing.T) {
	p := paperProblem(t)
	a := PureGreedyRollout(p)
	if n := testing.AllocsPerRun(20, func() { p.Evaluate(a) }); n != 0 {
		t.Errorf("Evaluate allocates %.0f times per 8×8 assignment, want 0", n)
	}
	searchAllocs := func(iters int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := Search(p, Options{IterationsPerLevel: iters, ExplorationC: 1, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	at400, at1600 := searchAllocs(400), searchAllocs(1600)
	if at400 > 5000 {
		t.Errorf("Search (8×8, 400/level) allocates %.0f times, want ≤ 5000", at400)
	}
	// The node slab is one allocation whatever its size; the committed
	// groups (one allocation each when non-empty) may differ between budgets.
	if at1600 > at400+float64(len(p.CBs)) {
		t.Errorf("Search allocations grow with the budget: %.0f at 400/level, %.0f at 1600/level", at400, at1600)
	}
}
