package mcts

// The map/slice implementation of the search that shipped before the
// table-driven rewrite, kept verbatim (identifiers prefixed ref) as the
// oracle of the differential tests. Do not optimise
// or "fix" anything here: its value is that it is the old code.

import (
	"math"
	"math/rand"
	"sort"

	"equinox/internal/geom"
)

// refCandidateGroups enumerates the legal EIR groups for CB index ci given the
// EIRs already taken by earlier CBs. Per the paper's simplifications, EIRs
// are distributed on distinct axis directions from the CB (matching the NI's
// four per-direction buffers), each within HopLimit hops; an EIR cannot be a
// CB or shared with another CB.
func (p Problem) refCandidateGroups(ci int, taken map[geom.Point]bool) []Group {
	cb := p.CBs[ci]
	isCB := make(map[geom.Point]bool, len(p.CBs))
	for _, c := range p.CBs {
		isCB[c] = true
	}
	// Options per direction: index 0 = no EIR, else distance d.
	dirs := []geom.Direction{geom.East, geom.West, geom.South, geom.North}
	options := make([][]geom.Point, len(dirs))
	for i, d := range dirs {
		options[i] = []geom.Point{{X: -1, Y: -1}} // sentinel: none
		for dist := 1; dist <= p.HopLimit; dist++ {
			e := cb.Add(geom.Pt(d.Delta().X*dist, d.Delta().Y*dist))
			if !e.In(p.Width, p.Height) || isCB[e] || taken[e] {
				continue
			}
			options[i] = append(options[i], e)
		}
	}
	none := geom.Pt(-1, -1)
	var out []Group
	var rec func(dim int, cur Group)
	rec = func(dim int, cur Group) {
		if dim == len(dirs) {
			if len(cur) <= p.MaxEIRsPerCB {
				g := make(Group, len(cur))
				copy(g, cur)
				out = append(out, g)
			}
			return
		}
		for _, opt := range options[dim] {
			if opt == none {
				rec(dim+1, cur)
			} else {
				rec(dim+1, append(cur, opt))
			}
		}
	}
	rec(0, nil)
	// Informed expansion order: statically promising groups first, so MCTS
	// spends its visit budget discriminating among strong candidates instead
	// of warming up weak ones. The rollout evaluation remains the judge.
	sort.SliceStable(out, func(i, j int) bool {
		return p.refHeuristicKey(cb, out[i]) < p.refHeuristicKey(cb, out[j])
	})
	return out
}

// Evaluate scores a complete assignment using the paper's four metrics plus
// the hot-zone penalty. It assumes each PE has similar traffic load, as the
// paper does, so every CB→PE flow counts equally.
func (p Problem) refEvaluate(a Assignment) Evaluation {
	var ev Evaluation
	isCB := make(map[geom.Point]bool, len(p.CBs))
	for _, c := range p.CBs {
		isCB[c] = true
	}

	// Per-injector (EIR or local router) injected load and hop totals, using
	// the NI buffer-selection policy of §4.4.
	load := map[geom.Point]float64{}
	totalHops, totalFlows := 0.0, 0.0
	var segs []geom.Segment
	for ci, cb := range p.CBs {
		var group Group
		if ci < len(a) {
			group = a[ci]
		}
		// Direction → EIR lookup.
		byDir := map[geom.Direction]geom.Point{}
		for _, e := range group {
			for _, d := range geom.DirTowards(cb, e) {
				byDir[d] = e
			}
			segs = append(segs, geom.Seg(cb, e))
			ev.Links++
			ev.LinkLength += geom.Manhattan(cb, e)
			// An EIR inside its own CB's hot zone (DAZ) defeats the purpose:
			// the first hop out of the CB is exactly what must be bypassed.
			if geom.Chebyshev(e, cb) == 1 {
				ev.HotEIRs++
			}
		}
		for y := 0; y < p.Height; y++ {
			for x := 0; x < p.Width; x++ {
				dst := geom.Pt(x, y)
				if dst == cb || isCB[dst] {
					continue
				}
				totalFlows++
				injs := p.refInjectorsFor(cb, byDir, dst)
				w := 1.0 / float64(len(injs))
				for _, inj := range injs {
					load[inj] += w
					hops := float64(geom.Manhattan(inj, dst))
					if inj != cb {
						// Interposer hop CB→EIR: a 2-hop-long RDL wire fits
						// in one clock cycle; longer wires need an extra
						// cycle (§4.3's repeaterless-length argument).
						hops += float64((geom.Manhattan(cb, inj) + 1) / 2)
					}
					totalHops += w * hops
				}
			}
		}
	}

	ev.Crossings = geom.CountCrossings(segs)
	if totalFlows > 0 {
		ev.AvgHops = totalHops / totalFlows
	}
	maxL, sumL := 0.0, 0.0
	for _, l := range load {
		if l > maxL {
			maxL = l
		}
		sumL += l
	}
	// The paper's first metric minimizes the *maximum absolute* traffic any
	// single injector must handle, which both balances load and rewards
	// having more injection points. Normalize against the architectural
	// ideal of five injectors per CB (the NI's local + four EIR buffers,
	// Figure 8) so costs stay comparable across group-size ablations: a
	// fully populated balanced design scores 1.0, a no-EIR design 5.
	if sumL > 0 {
		const idealInjPerCB = 5
		ev.MaxLoad = maxL * float64(len(p.CBs)*idealInjPerCB) / sumL
	}

	// Normalize and weight. Baselines: mean mesh hop distance for hops, a
	// 2-hop link for length, one link for crossings.
	meanDist := float64(p.Width+p.Height) / 3.0 // ≈ mean Manhattan distance on a mesh
	w := p.Weights
	cost := w.Load * ev.MaxLoad
	cost += w.Hops * (ev.AvgHops / meanDist)
	if ev.Links > 0 {
		cost += w.Crossings * float64(ev.Crossings) / float64(len(p.CBs))
		cost += w.Length * float64(ev.LinkLength) / float64(2*ev.Links)
		cost += w.HotZone * float64(ev.HotEIRs) / float64(len(p.CBs))
	}
	ev.Cost = cost
	return ev
}

// refInjectorsFor applies the Buffer Decision Policy (paper "Buffer Selection
// 1") to list the shortest-path injection candidates for one destination:
// the one on-axis EIR, the up-to-two quadrant EIRs (round-robin = equal
// weight), or the local CB router when no EIR is on a shortest path.
func (p Problem) refInjectorsFor(cb geom.Point, byDir map[geom.Direction]geom.Point, dst geom.Point) []geom.Point {
	dirs := geom.DirTowards(cb, dst)
	var cands []geom.Point
	for _, d := range dirs {
		e, ok := byDir[d]
		if !ok {
			continue
		}
		// The EIR must lie on a shortest path: its offset along the axis must
		// not overshoot the destination on that axis.
		switch d {
		case geom.East:
			if e.X-cb.X <= dst.X-cb.X {
				cands = append(cands, e)
			}
		case geom.West:
			if cb.X-e.X <= cb.X-dst.X {
				cands = append(cands, e)
			}
		case geom.South:
			if e.Y-cb.Y <= dst.Y-cb.Y {
				cands = append(cands, e)
			}
		case geom.North:
			if cb.Y-e.Y <= cb.Y-dst.Y {
				cands = append(cands, e)
			}
		}
	}
	if len(cands) == 0 {
		return []geom.Point{cb}
	}
	return cands
}

type refNode struct {
	group    Group // group assigned at this node (nil at root)
	parent   *refNode
	children []*refNode
	untried  []Group
	visits   int
	value    float64 // accumulated reward
}

// Search runs the iterated MCTS of §4.3 and returns the selected assignment.
func refSearch(p Problem, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if opts.IterationsPerLevel <= 0 {
		opts = DefaultOptions()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var res Result
	committed := Assignment{}
	taken := map[geom.Point]bool{}

	// Reward scaling: raw costs differ by only a few percent between good
	// and bad assignments, which would vanish under UCB's O(1) exploration
	// term. Anchor on the greedy all-2-hop design and spread costs
	// exponentially around it so UCB can discriminate.
	refCost := 1.0
	if g, err := refGreedyTwoHop(p); err == nil {
		refCost = g.Eval.Cost
	}
	const rewardTemp = 0.05
	rewardOf := func(cost float64) float64 {
		r := math.Exp((refCost - cost) / rewardTemp)
		if r > 10 {
			r = 10
		}
		return r
	}

	for level := 0; level < len(p.CBs); level++ {
		root := &refNode{untried: p.refCandidateGroups(level, taken)}
		if len(root.untried) == 0 {
			committed = append(committed, nil)
			continue
		}
		for it := 0; it < opts.IterationsPerLevel; it++ {
			res.Iterations++
			// (1) Selection.
			n := root
			depth := level
			for len(n.untried) == 0 && len(n.children) > 0 {
				n = refSelectUCB(n, opts.ExplorationC)
				depth++
			}
			// (2) Expansion: take the best untried candidate (the untried
			// list is pre-sorted by the static heuristic).
			if len(n.untried) > 0 && depth < len(p.CBs) {
				g := n.untried[0]
				n.untried = n.untried[1:]
				child := &refNode{group: g, parent: n}
				// Lazily enumerate the next level's candidates during rollout;
				// children of child are enumerated if it is selected later.
				n.children = append(n.children, child)
				n = child
				depth++
				if depth < len(p.CBs) {
					t2 := refTakenWithPath(taken, n)
					n.untried = p.refCandidateGroups(depth, t2)
				}
			}
			// (3) Simulation: random rollout for remaining CBs.
			full := refRolloutAssignment(p, committed, n, level, rng)
			ev := p.refEvaluate(full)
			res.Evaluated++
			reward := rewardOf(ev.Cost)
			// (4) Backpropagation.
			for m := n; m != nil; m = m.parent {
				m.visits++
				m.value += reward
			}
		}
		// Commit the best level-1 child: highest mean value among children
		// with enough visits to trust the estimate (falling back to raw
		// accumulated value when nothing qualifies). The paper commits on
		// accumulated score; with a CI-scale budget the visit-filtered mean
		// is the noise-robust equivalent.
		minVisits := 3
		best := (*refNode)(nil)
		for _, c := range root.children {
			if c.visits < minVisits {
				continue
			}
			if best == nil || refMean(c) > refMean(best) ||
				(refMean(c) == refMean(best) && refGroupLess(c.group, best.group)) {
				best = c
			}
		}
		if best == nil {
			best = root.children[0]
			for _, c := range root.children[1:] {
				if c.value > best.value ||
					(c.value == best.value && refGroupLess(c.group, best.group)) {
					best = c
				}
			}
		}
		committed = append(committed, best.group)
		for _, e := range best.group {
			taken[e] = true
		}
	}

	res.Assignment = committed
	res.Eval = p.refEvaluate(committed)
	return res, nil
}

// refSelectUCB picks the child maximizing v_i + C·sqrt(ln N / n_i), the UCB
// formula from the paper's footnote 2 (v_i is the mean value).
func refSelectUCB(n *refNode, c float64) *refNode {
	lnN := math.Log(float64(n.visits) + 1)
	best := n.children[0]
	bestScore := math.Inf(-1)
	for _, ch := range n.children {
		var s float64
		if ch.visits == 0 {
			s = math.Inf(1)
		} else {
			s = ch.value/float64(ch.visits) + c*math.Sqrt(lnN/float64(ch.visits))
		}
		if s > bestScore {
			bestScore = s
			best = ch
		}
	}
	return best
}

// refTakenWithPath unions the committed taken-set with the EIRs chosen along
// the current tree path.
func refTakenWithPath(taken map[geom.Point]bool, n *refNode) map[geom.Point]bool {
	t := make(map[geom.Point]bool, len(taken)+8)
	for k := range taken {
		t[k] = true
	}
	for m := n; m != nil; m = m.parent {
		for _, e := range m.group {
			t[e] = true
		}
	}
	return t
}

// refRolloutAssignment completes the partial assignment (committed + tree path
// ending at n, which covers CBs [0, pathDepth]) with uniformly random legal
// groups for the remaining CBs.
func refRolloutAssignment(p Problem, committed Assignment, n *refNode, level int, rng *rand.Rand) Assignment {
	full := make(Assignment, 0, len(p.CBs))
	full = append(full, committed...)
	// Collect the path groups root→n (reverse of parent walk).
	var path []Group
	for m := n; m != nil && m.parent != nil || (m != nil && m.group != nil); m = m.parent {
		if m.group != nil {
			path = append(path, m.group)
		}
		if m.parent == nil {
			break
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		full = append(full, path[i])
	}
	taken := map[geom.Point]bool{}
	for _, g := range full {
		for _, e := range g {
			taken[e] = true
		}
	}
	for ci := len(full); ci < len(p.CBs); ci++ {
		cands := p.refCandidateGroups(ci, taken)
		if len(cands) == 0 {
			full = append(full, nil)
			continue
		}
		// ε-greedy rollout policy: mostly complete the assignment with the
		// locally best group (largest, 2-hop, hot-zone-free), occasionally
		// explore a random one. A purely uniform rollout makes the value of
		// the level-under-search group indistinguishable from noise.
		var g Group
		if rng.Float64() < 0.15 {
			g = cands[rng.Intn(len(cands))]
		} else {
			g = p.refBestHeuristicGroup(ci, cands)
		}
		full = append(full, g)
		for _, e := range g {
			taken[e] = true
		}
	}
	return full
}

// refBestHeuristicGroup ranks candidate groups by a cheap static preference:
// more EIRs first, then fewer hot-zone EIRs, then distances closest to two
// hops. Used only inside rollouts; the true evaluation still judges the
// finished assignment.
func (p Problem) refBestHeuristicGroup(ci int, cands []Group) Group {
	cb := p.CBs[ci]
	best := cands[0]
	bestKey := p.refHeuristicKey(cb, best)
	for _, g := range cands[1:] {
		if k := p.refHeuristicKey(cb, g); k < bestKey {
			bestKey = k
			best = g
		}
	}
	return best
}

func (p Problem) refHeuristicKey(cb geom.Point, g Group) int {
	hot, distPenalty := 0, 0
	for _, e := range g {
		if geom.Chebyshev(e, cb) == 1 {
			hot++
		}
		d := geom.Manhattan(cb, e)
		if d > 2 {
			distPenalty += d - 2
		} else {
			distPenalty += 2 - d
		}
	}
	// A hot-zone EIR is worse than a missing one (it draws injection traffic
	// straight into the DAZ the design is trying to bypass); a missing EIR is
	// worse than an off-2-hop distance.
	return hot*300 + (p.MaxEIRsPerCB-len(g))*100 + distPenalty
}

func refMean(n *refNode) float64 {
	if n.visits == 0 {
		return 0
	}
	return n.value / float64(n.visits)
}

func refGroupLess(a, b Group) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Y != b[i].Y {
			return a[i].Y < b[i].Y
		}
		if a[i].X != b[i].X {
			return a[i].X < b[i].X
		}
	}
	return len(a) < len(b)
}

// RandomSearch is the ablation baseline: sample complete random assignments
// and keep the best. With the same evaluation budget it is markedly worse
// than MCTS on crossing avoidance, motivating the tree search.
func refRandomSearch(p Problem, samples int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var best Assignment
	bestEv := Evaluation{Cost: math.Inf(1)}
	for s := 0; s < samples; s++ {
		taken := map[geom.Point]bool{}
		a := make(Assignment, 0, len(p.CBs))
		for ci := range p.CBs {
			cands := p.refCandidateGroups(ci, taken)
			if len(cands) == 0 {
				a = append(a, nil)
				continue
			}
			g := cands[rng.Intn(len(cands))]
			a = append(a, g)
			for _, e := range g {
				taken[e] = true
			}
		}
		ev := p.refEvaluate(a)
		if ev.Cost < bestEv.Cost {
			bestEv = ev
			best = a
		}
	}
	return Result{Assignment: best, Eval: bestEv, Evaluated: samples}, nil
}

// GreedyTwoHop constructs the canonical EquiNox solution directly: every CB
// gets an EIR exactly two hops away on each axis direction that stays inside
// the mesh and is not a CB or an already-used EIR. This mirrors the design
// MCTS converges to in the paper's Figure 7 and serves both as a fast path
// for large meshes and as a quality yardstick in tests.
func refGreedyTwoHop(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	isCB := map[geom.Point]bool{}
	for _, c := range p.CBs {
		isCB[c] = true
	}
	taken := map[geom.Point]bool{}
	a := make(Assignment, len(p.CBs))
	order := []geom.Direction{geom.East, geom.West, geom.South, geom.North}
	for ci, cb := range p.CBs {
		var g Group
		for _, d := range order {
			if len(g) == p.MaxEIRsPerCB {
				break
			}
			e := cb.Add(geom.Pt(d.Delta().X*2, d.Delta().Y*2))
			if e.In(p.Width, p.Height) && !isCB[e] && !taken[e] {
				g = append(g, e)
				taken[e] = true
			}
		}
		sort.Slice(g, func(i, j int) bool {
			if g[i].Y != g[j].Y {
				return g[i].Y < g[j].Y
			}
			return g[i].X < g[j].X
		})
		a[ci] = g
	}
	return Result{Assignment: a, Eval: p.refEvaluate(a)}, nil
}

// PureGreedyRollout completes an empty assignment with the rollout policy's
// greedy choice for every CB (no randomness). Exported for diagnostics.
func refPureGreedyRollout(p Problem) Assignment {
	taken := map[geom.Point]bool{}
	a := make(Assignment, 0, len(p.CBs))
	for ci := range p.CBs {
		cands := p.refCandidateGroups(ci, taken)
		if len(cands) == 0 {
			a = append(a, nil)
			continue
		}
		g := p.refBestHeuristicGroup(ci, cands)
		a = append(a, g)
		for _, e := range g {
			taken[e] = true
		}
	}
	return a
}

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
func refSimulatedAnnealing(p Problem, evaluations int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if evaluations < 1 {
		evaluations = 1
	}
	rng := rand.New(rand.NewSource(seed))
	n := p.Width * p.Height
	isCB := map[int]bool{}
	for _, cb := range p.CBs {
		isCB[cb.ID(p.Width)] = true
	}

	// Start from a random valid-ish bit vector: mark a few tiles near CBs.
	bits := make([]bool, n)
	for _, cb := range p.CBs {
		for k := 0; k < p.MaxEIRsPerCB; k++ {
			d := geom.Direction(1 + rng.Intn(4))
			dist := 1 + rng.Intn(p.HopLimit)
			e := cb.Add(geom.Pt(d.Delta().X*dist, d.Delta().Y*dist))
			if e.In(p.Width, p.Height) && !isCB[e.ID(p.Width)] {
				bits[e.ID(p.Width)] = true
			}
		}
	}

	decode := func(bs []bool) Assignment {
		// Repair: each set bit becomes an EIR of the nearest CB whose axis
		// it lies on (first match wins); bits that fit no CB are invalid and
		// dropped — the wasted encodings the paper's critique predicts.
		a := make(Assignment, len(p.CBs))
		used := map[geom.Point]bool{}
		dirTaken := make([]map[geom.Direction]bool, len(p.CBs))
		for i := range dirTaken {
			dirTaken[i] = map[geom.Direction]bool{}
		}
		for id, set := range bs {
			if !set {
				continue
			}
			e := geom.FromID(id, p.Width)
			if isCB[id] || used[e] {
				continue
			}
			for ci, cb := range p.CBs {
				dirs := geom.DirTowards(cb, e)
				if len(dirs) != 1 || geom.Manhattan(cb, e) > p.HopLimit {
					continue
				}
				if len(a[ci]) >= p.MaxEIRsPerCB || dirTaken[ci][dirs[0]] {
					continue
				}
				a[ci] = append(a[ci], e)
				dirTaken[ci][dirs[0]] = true
				used[e] = true
				break
			}
		}
		return a
	}

	cur := append([]bool(nil), bits...)
	curCost := p.refEvaluate(decode(cur)).Cost
	best := append([]bool(nil), cur...)
	bestCost := curCost

	t0, t1 := 1.0, 0.01
	for i := 0; i < evaluations; i++ {
		temp := t0 * math.Pow(t1/t0, float64(i)/float64(evaluations))
		// Perturb: flip one random bit (the GA/SA mutation of the critique).
		j := rng.Intn(n)
		cand := append([]bool(nil), cur...)
		cand[j] = !cand[j]
		cost := p.refEvaluate(decode(cand)).Cost
		if cost < curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
			cur, curCost = cand, cost
			if cost < bestCost {
				best, bestCost = append([]bool(nil), cand...), cost
			}
		}
	}
	a := decode(best)
	return Result{Assignment: a, Eval: p.refEvaluate(a), Evaluated: evaluations}, nil
}
