// Package mcts implements the Monte-Carlo Tree Search used by EquiNox
// (paper §4.3) to select the groups of Equivalent Injection Routers (EIRs)
// for each cache bank (CB).
//
// The search follows the paper's structure exactly:
//
//   - The tree is expanded group-by-group: each tree level assigns the whole
//     EIR group of one CB, so the tree depth equals the number of CBs.
//   - Each iteration performs selection (UCB1), expansion, simulation
//     (random rollout of the remaining CBs' groups), and backpropagation.
//   - After a per-level iteration budget, the root child with the best
//     accumulated value is committed and becomes part of the new root state,
//     and the search proceeds to the next CB.
//
// The evaluation function integrates the paper's four metrics — max EIR
// traffic load, average hop count, number of RDL intersection points, and
// total link length — plus a hot-zone placement penalty reflecting §3.2.4's
// observation that the eight nodes surrounding a CB are poor EIR choices.
package mcts

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"equinox/internal/geom"
)

// Problem describes one EIR-selection instance.
type Problem struct {
	Width, Height int
	CBs           []geom.Point
	MaxEIRsPerCB  int // group size upper bound (4 in EquiNox: one per axis)
	HopLimit      int // EIRs must be within this many hops of their CB (3)
	Weights       EvalWeights
}

// EvalWeights are the relative weights of the evaluation terms. All terms
// are normalized before weighting; lower weighted sums are better.
type EvalWeights struct {
	Load      float64 // max EIR/injector load imbalance
	Hops      float64 // average injection-to-destination hop count
	Crossings float64 // RDL wire crossings
	Length    float64 // total interposer wire length
	HotZone   float64 // EIRs placed inside some CB's hot zone
}

// DefaultWeights reproduce the paper's qualitative outcome: crossings are
// expensive (each one forces an extra RDL layer via the dual-damascene
// process), hot-zone EIRs are bad, and length mildly discourages 3-hop links
// once 2-hop links already clear the hot zone.
func DefaultWeights() EvalWeights {
	return EvalWeights{Load: 1.0, Hops: 1.5, Crossings: 4.0, Length: 0.5, HotZone: 2.0}
}

// NewProblem builds the standard EquiNox problem for a mesh and placement:
// up to 4 EIRs per CB, each within 3 hops (§4.3's search constraints).
func NewProblem(w, h int, cbs []geom.Point) Problem {
	return Problem{
		Width: w, Height: h, CBs: cbs,
		MaxEIRsPerCB: 4, HopLimit: 3,
		Weights: DefaultWeights(),
	}
}

// maxHopLimit is the largest HopLimit Validate accepts.
const maxHopLimit = 16

// Validate reports configuration errors.
func (p Problem) Validate() error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("mcts: invalid mesh %dx%d", p.Width, p.Height)
	}
	if len(p.CBs) == 0 {
		return fmt.Errorf("mcts: no CBs")
	}
	if p.MaxEIRsPerCB < 0 || p.MaxEIRsPerCB > 4 {
		return fmt.Errorf("mcts: MaxEIRsPerCB %d outside [0,4]", p.MaxEIRsPerCB)
	}
	if p.HopLimit < 1 {
		return fmt.Errorf("mcts: HopLimit %d < 1", p.HopLimit)
	}
	// A CB has at most 4·HopLimit candidate EIR tiles, one bit each in the
	// searches' 64-bit legality masks.
	if p.HopLimit > maxHopLimit {
		return fmt.Errorf("mcts: HopLimit %d > %d (a CB's 4·HopLimit candidate EIRs must fit a 64-bit mask)", p.HopLimit, maxHopLimit)
	}
	for i, cb := range p.CBs {
		if !cb.In(p.Width, p.Height) {
			return fmt.Errorf("mcts: CB %v outside mesh", cb)
		}
		// The searches sum per-CB evaluation shares, which is exact only
		// when no two CBs are the same injector.
		if slices.Contains(p.CBs[:i], cb) {
			return fmt.Errorf("mcts: duplicate CB %v", cb)
		}
	}
	return nil
}

// Group is one CB's EIR selection: at most one EIR per axis direction.
// A nil/empty group means the CB injects only through its local router.
type Group []geom.Point

// Assignment maps each CB (by index into Problem.CBs) to its EIR group.
type Assignment [][]geom.Point

// Groups converts an Assignment into the CB-keyed map used by the interposer
// and scheme packages.
func (p Problem) Groups(a Assignment) map[geom.Point][]geom.Point {
	m := make(map[geom.Point][]geom.Point, len(p.CBs))
	for i, cb := range p.CBs {
		if i < len(a) {
			m[cb] = a[i]
		}
	}
	return m
}

// Evaluation carries the raw and weighted evaluation of a full assignment.
type Evaluation struct {
	MaxLoad    float64 // highest per-injector load, normalized to the mean
	AvgHops    float64 // mean injection-point→destination hops
	Crossings  int     // RDL crossing points
	LinkLength int     // summed Manhattan link length (tile pitches)
	HotEIRs    int     // EIRs placed in some CB's hot zone
	Links      int     // number of interposer links
	Cost       float64 // weighted, normalized sum (lower is better)
}

// cbEval is one CB's share of an Evaluation. EIRs are never shared and CBs
// never inject for one another, so everything but the RDL crossings depends
// only on (CB, its group) and a full evaluation is a sum of these. Hops and
// loads are stored doubled: every flow weight is 1 or ½ and every hop count
// an integer, so the doubled values are exact integers, and the float64
// sums they replace were exact half-integers in any order.
type cbEval struct {
	hops2              int                       // 2 × Σ weight·hops over the CB's flows
	links, length, hot int32                     // EIR links, their Manhattan length, hot-zone EIRs
	load2              [geom.NumDirections]int32 // 2 × injected load of the CB router (Local) and of the EIR per direction
}

// totals accumulates cbEvals (and the merged injector loads) of a full
// assignment.
type totals struct {
	hops2, links, length, hot int
	maxLoad2, sumLoad2        int
}

func (t *totals) add(ev *cbEval) {
	t.hops2 += ev.hops2
	t.links += int(ev.links)
	t.length += int(ev.length)
	t.hot += int(ev.hot)
}

func (t *totals) addLoad(load2 int) {
	t.maxLoad2 = max(t.maxLoad2, load2)
	t.sumLoad2 += load2
}

// eirsByDir is one CB's group keyed by the direction each EIR serves; the
// CB itself stands for "none" (and is, as Local, its own injector).
type eirsByDir [geom.NumDirections]geom.Point

// cbTiles returns the set of CB tiles, in buf when that is large enough.
// CBs outside the mesh (an unvalidated Problem) are never a destination.
func (p Problem) cbTiles(buf []uint64) geom.TileSet {
	words := (p.Width*p.Height + 63) / 64
	var s geom.TileSet
	if words <= len(buf) {
		s = buf[:words]
		clear(s)
	} else {
		s = make(geom.TileSet, words)
	}
	for _, cb := range p.CBs {
		if cb.In(p.Width, p.Height) {
			s.Add(cb.ID(p.Width))
		}
	}
	return s
}

// Evaluate scores a complete assignment using the paper's four metrics plus
// the hot-zone penalty. It assumes each PE has similar traffic load, as the
// paper does, so every CB→PE flow counts equally. Any hand-built assignment
// is accepted, legal or not; the searches score legal ones through the
// per-(CB, group) tables of search.evaluate, which agree with this exactly.
func (p Problem) Evaluate(a Assignment) Evaluation {
	var setBuf [4]uint64
	isCB := p.cbTiles(setBuf[:])
	var segBuf [64]geom.Segment
	segs := segBuf[:0]
	// Per-injector (EIR or local router) load under the NI buffer-selection
	// policy of §4.4, merged by tile: an illegal assignment may share EIRs.
	type injLoad struct {
		at    geom.Point
		load2 int
	}
	var injBuf [80]injLoad
	injs := injBuf[:0]
	var t totals
	for ci, cb := range p.CBs {
		var group []geom.Point
		if ci < len(a) {
			group = a[ci]
		}
		ev, eirs := p.evalCB(cb, group, isCB)
		t.add(&ev)
		for _, e := range group {
			segs = append(segs, geom.Seg(cb, e))
		}
	merge:
		for d, l := range ev.load2 {
			if l == 0 {
				continue
			}
			for i := range injs {
				if injs[i].at == eirs[d] {
					injs[i].load2 += int(l)
					continue merge
				}
			}
			injs = append(injs, injLoad{eirs[d], int(l)})
		}
	}
	for _, in := range injs {
		t.addLoad(in.load2)
	}
	return p.finish(t, isCB, geom.CountCrossings(segs))
}

// evalCB computes one CB's share of the evaluation for the given group.
func (p Problem) evalCB(cb geom.Point, group []geom.Point, isCB geom.TileSet) (ev cbEval, eirs eirsByDir) {
	eirs = eirsByDir{cb, cb, cb, cb, cb}
	var dirBuf [2]geom.Direction
	for _, e := range group {
		for _, d := range geom.AppendDirTowards(dirBuf[:0], cb, e) {
			eirs[d] = e
		}
		ev.addLink(cb, e)
	}
	id := -1
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			id++
			if isCB.Has(id) {
				continue
			}
			ev.addDest(cb, &eirs, geom.Pt(x, y))
		}
	}
	return ev, eirs
}

// addLink adds the CB→EIR link to e: its length and hot-zone count.
func (ev *cbEval) addLink(cb, e geom.Point) {
	ev.links++
	ev.length += int32(geom.Manhattan(cb, e))
	// An EIR inside its own CB's hot zone (DAZ) defeats the purpose: the
	// first hop out of the CB is exactly what must be bypassed.
	if geom.Chebyshev(e, cb) == 1 {
		ev.hot++
	}
}

// addDest adds the CB's flow to dst: its hops and injector loads under the
// group eirs.
func (ev *cbEval) addDest(cb geom.Point, eirs *eirsByDir, dst geom.Point) {
	injs, n := injectorsFor(cb, eirs, dst)
	w2 := 2 / n
	for _, d := range injs[:n] {
		inj := eirs[d]
		ev.load2[d] += int32(w2)
		hops := geom.Manhattan(inj, dst)
		if d != geom.Local {
			// Interposer hop CB→EIR: a 2-hop-long RDL wire fits in one
			// clock cycle; longer wires need an extra cycle (§4.3's
			// repeaterless-length argument).
			hops += (geom.Manhattan(cb, inj) + 1) / 2
		}
		ev.hops2 += w2 * hops
	}
}

// addShare adds a class share's hops and loads to ev (see shareTables).
func (ev *cbEval) addShare(sh *cbEval) {
	ev.hops2 += sh.hops2
	for d, l := range sh.load2 {
		ev.load2[d] += l
	}
}

// finish turns the summed per-CB shares and the crossing count into the
// weighted Evaluation.
func (p Problem) finish(t totals, isCB geom.TileSet, crossings int) Evaluation {
	ev := Evaluation{Crossings: crossings, LinkLength: t.length, HotEIRs: t.hot, Links: t.links}
	// Every CB sends one flow to every non-CB tile.
	totalHops, totalFlows := float64(t.hops2)/2, float64(len(p.CBs)*(p.Width*p.Height-isCB.Len()))
	if totalFlows > 0 {
		ev.AvgHops = totalHops / totalFlows
	}
	maxL, sumL := float64(t.maxLoad2)/2, float64(t.sumLoad2)/2
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

// injectorsFor applies the Buffer Decision Policy (paper "Buffer Selection
// 1") to list the shortest-path injection candidates for one destination,
// as the directions they serve: the one on-axis EIR, the up-to-two quadrant
// EIRs (round-robin = equal weight), or Local — the CB's own router — when
// no EIR is on a shortest path.
func injectorsFor(cb geom.Point, eirs *eirsByDir, dst geom.Point) (injs [2]geom.Direction, n int) {
	var dirBuf [2]geom.Direction
	for _, d := range geom.AppendDirTowards(dirBuf[:0], cb, dst) {
		e, onPath := eirs[d], false
		if e == cb {
			continue
		}
		// The EIR must lie on a shortest path: its offset along the axis must
		// not overshoot the destination on that axis.
		switch d {
		case geom.East:
			onPath = e.X-cb.X <= dst.X-cb.X
		case geom.West:
			onPath = cb.X-e.X <= cb.X-dst.X
		case geom.South:
			onPath = e.Y-cb.Y <= dst.Y-cb.Y
		case geom.North:
			onPath = cb.Y-e.Y <= cb.Y-dst.Y
		}
		if onPath {
			injs[n] = d
			n++
		}
	}
	if n == 0 {
		return injs, 1 // injs[0] is Local
	}
	return injs, n
}

// Options controls the search effort.
type Options struct {
	IterationsPerLevel int     // MCTS iterations before committing each CB's group
	ExplorationC       float64 // UCB1 exploration constant
	Seed               int64
}

// DefaultOptions is the default budget: it reliably reaches the paper's
// reported design attributes on 8×8 (all-2-hop, crossing-free).
func DefaultOptions() Options {
	return Options{IterationsPerLevel: 400, ExplorationC: 1.0, Seed: 42}
}

// Result is the outcome of a search.
type Result struct {
	Assignment Assignment
	Eval       Evaluation
	Evaluated  int // complete assignments scored: one per MCTS iteration or random sample
}

// node is one tree node, addressed by its index in the level's slab. Its
// untried groups are the legal entries of the next CB's static order from
// next on, under the taken set of the path that leads here.
type node struct {
	cand        int32 // this node's group, as an index into its CB's static order
	parent      int32 // -1 at the root
	first, last int32 // children in expansion order (-1: none)
	sibling     int32 // the parent's next child (-1: none)
	next        int32 // first untried group of the next CB (-1: none left)
	visits      int
	value       float64 // accumulated reward
	mean        float64 // value/visits, refreshed by backpropagation (0 unvisited)
}

// Search runs the iterated MCTS of §4.3 and returns the selected assignment.
// A non-positive IterationsPerLevel selects the DefaultOptions budget (and
// its exploration constant, if that is zero too); the seed is always the
// caller's.
func Search(p Problem, opts Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if opts.IterationsPerLevel <= 0 {
		def := DefaultOptions()
		opts.IterationsPerLevel = def.IterationsPerLevel
		if opts.ExplorationC == 0 {
			opts.ExplorationC = def.ExplorationC
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var res Result

	// Reward scaling: raw costs differ by only a few percent between good
	// and bad assignments, which would vanish under UCB's O(1) exploration
	// term. Anchor on the greedy all-2-hop design and spread costs
	// exponentially around it so UCB can discriminate.
	refCost := 1.0
	if g, err := GreedyTwoHop(p); err == nil {
		refCost = g.Eval.Cost
	}
	const rewardTemp = 0.05

	s := newSearch(p)
	// Each iteration adds at most one node and the tree is rebuilt per
	// level, so one slab serves the whole search.
	nodes := make([]node, 0, opts.IterationsPerLevel+1)
	path := geom.NewTileSet(p.Width * p.Height) // taken ∪ the groups on the current tree path and rollout
	for level := range p.CBs {
		nodes = append(nodes[:0], node{cand: -1, parent: -1, first: -1, last: -1, sibling: -1,
			next: s.nextLegal(level, 0, s.taken)})
		for it := 0; it < opts.IterationsPerLevel; it++ {
			// (1) Selection.
			n, depth := int32(0), level
			copy(path, s.taken)
			for nodes[n].next < 0 && nodes[n].first >= 0 {
				n = selectUCB(nodes, n, opts.ExplorationC)
				s.choose(depth, nodes[n].cand, path)
				depth++
			}
			// (2) Expansion: take the best untried candidate (the static
			// order is sorted by the heuristic). The child's own untried
			// cursor is set under the path that now includes its group.
			if k := nodes[n].next; k >= 0 {
				nodes[n].next = s.nextLegal(depth, int(k)+1, path)
				child := int32(len(nodes))
				nodes = append(nodes, node{cand: k, parent: n, first: -1, last: -1, sibling: -1, next: -1})
				if nodes[n].first < 0 {
					nodes[n].first = child
				} else {
					nodes[nodes[n].last].sibling = child
				}
				nodes[n].last = child
				n = child
				s.choose(depth, k, path)
				depth++
				if depth < len(p.CBs) {
					nodes[n].next = s.nextLegal(depth, 0, path)
				}
			}
			// (3) Simulation: ε-greedy rollout for the remaining CBs. Mostly
			// complete the assignment with the locally best group (largest,
			// 2-hop, hot-zone-free: the first legal entry), occasionally
			// explore a random one. A purely uniform rollout makes the value
			// of the level-under-search group indistinguishable from noise.
			for ci := depth; ci < len(p.CBs); ci++ {
				if rng.Float64() < 0.15 {
					s.choose(ci, s.kthLegal(ci, rng.Intn(s.countLegal(ci, path)), path), path)
				} else {
					s.choose(ci, s.nextLegal(ci, 0, path), path)
				}
			}
			ev := s.evaluate()
			res.Evaluated++
			reward := math.Exp((refCost - ev.Cost) / rewardTemp)
			if reward > 10 {
				reward = 10
			}
			// (4) Backpropagation.
			for m := n; m >= 0; m = nodes[m].parent {
				nodes[m].visits++
				nodes[m].value += reward
				nodes[m].mean = nodes[m].value / float64(nodes[m].visits)
			}
		}
		// Commit the best level-1 child: highest mean value among children
		// with enough visits to trust the estimate (falling back to raw
		// accumulated value when nothing qualifies). The paper commits on
		// accumulated score; with a CI-scale budget the visit-filtered mean
		// is the noise-robust equivalent.
		const minVisits = 3
		cands := s.cands[level]
		best := int32(-1)
		for c := nodes[0].first; c >= 0; c = nodes[c].sibling {
			if nodes[c].visits < minVisits {
				continue
			}
			if best < 0 || nodes[c].mean > nodes[best].mean ||
				(nodes[c].mean == nodes[best].mean && candLess(&cands[nodes[c].cand], &cands[nodes[best].cand])) {
				best = c
			}
		}
		if best < 0 {
			best = nodes[0].first
			for c := nodes[best].sibling; c >= 0; c = nodes[c].sibling {
				if nodes[c].value > nodes[best].value ||
					(nodes[c].value == nodes[best].value && candLess(&cands[nodes[c].cand], &cands[nodes[best].cand])) {
					best = c
				}
			}
		}
		s.choose(level, nodes[best].cand, s.taken)
	}

	res.Assignment = s.assignment()
	res.Eval = p.Evaluate(res.Assignment)
	return res, nil
}

// selectUCB picks the child maximizing v_i + C·sqrt(ln N / n_i), the UCB
// formula from the paper's footnote 2 (v_i is the mean value).
func selectUCB(nodes []node, n int32, c float64) int32 {
	lnN := math.Log(float64(nodes[n].visits) + 1)
	best := nodes[n].first
	bestScore := math.Inf(-1)
	for ch := nodes[n].first; ch >= 0; ch = nodes[ch].sibling {
		var s float64
		if v := nodes[ch].visits; v == 0 {
			s = math.Inf(1)
		} else {
			s = nodes[ch].mean + c*math.Sqrt(lnN/float64(v))
		}
		if s > bestScore {
			bestScore = s
			best = ch
		}
	}
	return best
}

// RandomSearch is the ablation baseline: sample complete random assignments
// and keep the best. With the same evaluation budget it is markedly worse
// than MCTS on crossing avoidance, motivating the tree search.
func RandomSearch(p Problem, samples int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := newSearch(p)
	var best Assignment
	bestEv := Evaluation{Cost: math.Inf(1)}
	for i := 0; i < samples; i++ {
		clear(s.taken)
		for ci := range p.CBs {
			s.choose(ci, s.kthLegal(ci, rng.Intn(s.countLegal(ci, s.taken)), s.taken), s.taken)
		}
		if ev := s.evaluate(); ev.Cost < bestEv.Cost {
			bestEv = ev
			best = s.assignment()
		}
	}
	return Result{Assignment: best, Eval: bestEv, Evaluated: samples}, nil
}

// GreedyTwoHop constructs the canonical EquiNox solution directly: every CB
// gets an EIR exactly two hops away on each axis direction that stays inside
// the mesh and is not a CB or an already-used EIR. This mirrors the design
// MCTS converges to in the paper's Figure 7 and serves both as a fast path
// for large meshes and as a quality yardstick in tests. Under a HopLimit of
// 1 no 2-hop EIR is legal, and every group is empty.
func GreedyTwoHop(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	isCB := p.cbTiles(nil)
	taken := geom.NewTileSet(p.Width * p.Height)
	a := make(Assignment, len(p.CBs))
	for ci, cb := range p.CBs {
		var g Group
		for _, d := range axisOrder {
			if len(g) == p.MaxEIRsPerCB || p.HopLimit < 2 {
				break
			}
			e := cb.Add(geom.Pt(d.Delta().X*2, d.Delta().Y*2))
			if !e.In(p.Width, p.Height) {
				continue
			}
			if id := e.ID(p.Width); !isCB.Has(id) && !taken.Has(id) {
				g = append(g, e)
				taken.Add(id)
			}
		}
		slices.SortFunc(g, func(a, b geom.Point) int { return a.ID(p.Width) - b.ID(p.Width) })
		a[ci] = g
	}
	return Result{Assignment: a, Eval: p.Evaluate(a)}, nil
}
