package mcts

import (
	"math/bits"
	"slices"

	"equinox/internal/geom"
)

// axisOrder is the direction order of the group enumeration: a group lists
// its EIRs East, West, South, North.
var axisOrder = [4]geom.Direction{geom.East, geom.West, geom.South, geom.North}

// eir is one candidate EIR of a CB: its tile, and the index of its CB→EIR
// link among all candidate RDL segments of the problem.
type eir struct {
	tile, seg int32
}

// cand is one EIR group of a CB — at most one EIR per axis direction, each
// within HopLimit hops and not on a CB tile (the paper's simplifications,
// matching the NI's four per-direction buffers) — with its share of the
// evaluation memoised on first use.
type cand struct {
	eirs [4]eir // in axisOrder
	n    int8
	done bool  // ev is filled
	key  int32 // static preference, lower first (see newSearch)
	ev   cbEval
}

// legal reports whether none of the group's EIRs is taken by another CB.
func (c *cand) legal(taken geom.TileSet) bool {
	for _, e := range c.eirs[:c.n] {
		if taken.Has(int(e.tile)) {
			return false
		}
	}
	return true
}

// candLess orders groups by their EIR tiles, row-major, shorter first on a
// common prefix: the deterministic tie-break of the commit step.
func candLess(a, b *cand) bool {
	for i, e := range a.eirs[:a.n] {
		if i >= int(b.n) {
			return false
		}
		if e.tile != b.eirs[i].tile {
			return e.tile < b.eirs[i].tile
		}
	}
	return a.n < b.n
}

// search holds the tables one search call builds from its Problem, and its
// scratch. Nothing here outlives the call.
//
// cands[ci] is every group of CB ci that is legal when no EIR is taken yet,
// enumerated E, W, S, N (none, then nearest first) and stable-sorted by the
// static preference. The groups legal under a taken set, in the order the
// search expands them, are exactly the entries of cands[ci] that avoid the
// set: taking tiles only removes options, which keeps the enumeration order
// of the rest, and a stable sort of a subsequence is the subsequence of the
// stable sort. The empty group is always legal, so there always is one.
type search struct {
	p     Problem
	isCB  geom.TileSet
	cands [][]cand

	// RDL crossings: every candidate EIR's CB→EIR link has an index (eir.seg),
	// and bit j of row i of cross (segWords words per row) says whether links
	// i and j properly cross. An assignment's crossings are the set bits of
	// cross restricted to its links, halved.
	cross    []uint64
	segWords int

	taken   geom.TileSet // EIRs of the groups chosen so far
	choice  []int32      // per CB: the chosen group, as an index into cands
	present []uint64     // scratch of evaluate: the links of choice
}

func newSearch(p Problem) *search {
	s := &search{
		p:      p,
		isCB:   p.cbTiles(nil),
		cands:  make([][]cand, len(p.CBs)),
		taken:  geom.NewTileSet(p.Width * p.Height),
		choice: make([]int32, len(p.CBs)),
	}
	var opts [4][]eirOption
	var segs []geom.Segment
	for ci, cb := range p.CBs {
		groups := 1
		for i, d := range axisOrder {
			opts[i] = opts[i][:0]
			for dist := 1; dist <= p.HopLimit; dist++ {
				e := cb.Add(geom.Pt(d.Delta().X*dist, d.Delta().Y*dist))
				if !e.In(p.Width, p.Height) {
					break
				}
				if s.isCB.Has(e.ID(p.Width)) {
					continue
				}
				// Static preference, summed per EIR: a hot-zone EIR is
				// worse than a missing one (it draws injection traffic
				// straight into the DAZ the design is trying to bypass); a
				// missing EIR is worse than an off-2-hop distance.
				key := -100 + max(dist-2, 2-dist)
				if geom.Chebyshev(e, cb) == 1 {
					key += 300
				}
				opts[i] = append(opts[i], eirOption{eir{int32(e.ID(p.Width)), int32(len(segs))}, int32(key)})
				segs = append(segs, geom.Seg(cb, e))
			}
			groups *= 1 + len(opts[i])
		}
		// Informed expansion order: statically promising groups first, so
		// MCTS spends its visit budget discriminating among strong
		// candidates instead of warming up weak ones. The rollout evaluation
		// remains the judge.
		s.cands[ci] = s.enumerate(&opts, 0, cand{key: int32(100 * p.MaxEIRsPerCB)}, make([]cand, 0, groups))
		slices.SortStableFunc(s.cands[ci], func(a, b cand) int { return int(a.key - b.key) })
	}

	n := len(segs)
	s.segWords = (n + 63) / 64
	s.cross = make([]uint64, n*s.segWords)
	s.present = make([]uint64, s.segWords)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if geom.ProperCrossing(segs[i], segs[j]) {
				s.cross[i*s.segWords+j>>6] |= 1 << (uint(j) & 63)
				s.cross[j*s.segWords+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return s
}

// eirOption is one choice for one direction of a group, with its summand of
// the group's static preference key.
type eirOption struct {
	eir
	key int32
}

// enumerate appends to out every extension of cur by one option (or none)
// per remaining direction, none first, that respects MaxEIRsPerCB.
func (s *search) enumerate(opts *[4][]eirOption, dim int, cur cand, out []cand) []cand {
	if dim == len(opts) {
		if int(cur.n) <= s.p.MaxEIRsPerCB {
			out = append(out, cur)
		}
		return out
	}
	out = s.enumerate(opts, dim+1, cur, out)
	for _, o := range opts[dim] {
		next := cur
		next.eirs[next.n] = o.eir
		next.n++
		next.key += o.key
		out = s.enumerate(opts, dim+1, next, out)
	}
	return out
}

// nextLegal returns the first group of CB ci at or after from in the static
// order that is legal under taken, or -1.
func (s *search) nextLegal(ci, from int, taken geom.TileSet) int32 {
	cands := s.cands[ci]
	for k := from; k < len(cands); k++ {
		if cands[k].legal(taken) {
			return int32(k)
		}
	}
	return -1
}

// countLegal returns how many groups of CB ci are legal under taken.
func (s *search) countLegal(ci int, taken geom.TileSet) int {
	n := 0
	for k := range s.cands[ci] {
		if s.cands[ci][k].legal(taken) {
			n++
		}
	}
	return n
}

// kthLegal returns the k-th (from 0) group of CB ci legal under taken.
func (s *search) kthLegal(ci, k int, taken geom.TileSet) int32 {
	at := s.nextLegal(ci, 0, taken)
	for ; k > 0; k-- {
		at = s.nextLegal(ci, int(at)+1, taken)
	}
	return at
}

// choose records group k as CB ci's and marks its EIRs in taken.
func (s *search) choose(ci int, k int32, taken geom.TileSet) {
	s.choice[ci] = k
	c := &s.cands[ci][k]
	for _, e := range c.eirs[:c.n] {
		taken.Add(int(e.tile))
	}
}

// evaluate scores the assignment in choice: a sum of memoised per-(CB,
// group) shares, plus the crossings among its links.
func (s *search) evaluate() Evaluation {
	var t totals
	clear(s.present)
	for ci, k := range s.choice {
		c := &s.cands[ci][k]
		if !c.done {
			var buf [4]geom.Point
			c.ev, _ = s.p.evalCB(s.p.CBs[ci], s.points(c, buf[:0]), s.isCB)
			c.done = true
		}
		t.add(&c.ev)
		for _, l := range c.ev.load2 {
			t.addLoad(int(l))
		}
		for _, e := range c.eirs[:c.n] {
			s.present[e.seg>>6] |= 1 << (uint(e.seg) & 63)
		}
	}
	crossings := 0
	for ci, k := range s.choice {
		c := &s.cands[ci][k]
		for _, e := range c.eirs[:c.n] {
			row := s.cross[int(e.seg)*s.segWords:][:s.segWords]
			for w, m := range s.present {
				crossings += bits.OnesCount64(row[w] & m)
			}
		}
	}
	return s.p.finish(t, s.isCB, crossings/2)
}

// points appends the group's EIRs to buf as mesh coordinates.
func (s *search) points(c *cand, buf []geom.Point) []geom.Point {
	for _, e := range c.eirs[:c.n] {
		buf = append(buf, geom.FromID(int(e.tile), s.p.Width))
	}
	return buf
}

// assignment returns the groups in choice as a fresh Assignment.
func (s *search) assignment() Assignment {
	a := make(Assignment, len(s.choice))
	for ci, k := range s.choice {
		c := &s.cands[ci][k]
		a[ci] = s.points(c, make(Group, 0, c.n))
	}
	return a
}
