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
// evaluation, built from the CB's share tables in newSearch.
type cand struct {
	eirs               [4]eir // in axisOrder
	n                  int8
	key                int32 // static preference, lower first (see newSearch)
	maxLoad2, sumLoad2 int32 // max and sum of ev.load2
	ev                 cbEval
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
	masks [][]uint64 // masks[ci][k]: bit j says group k of CB ci uses link segBase[ci]+j

	// Every candidate EIR's CB→EIR link has an index (eir.seg): CB ci's are
	// segBase[ci] up to segBase[ci+1], and optTile holds their EIR tiles.
	optTile []int32
	segBase []int32

	// RDL crossings: bit j of row i of cross (len(present) words per row)
	// says whether links i and j properly cross.
	cross []uint64

	taken   geom.TileSet // EIRs of the groups chosen so far
	choice  []int32      // per CB: the chosen group, as an index into cands
	present []uint64     // scratch of evaluate: the links of choice
}

func newSearch(p Problem) *search {
	s := &search{
		p:       p,
		isCB:    p.cbTiles(nil),
		cands:   make([][]cand, len(p.CBs)),
		masks:   make([][]uint64, len(p.CBs)),
		segBase: make([]int32, len(p.CBs)+1),
		taken:   geom.NewTileSet(p.Width * p.Height),
		choice:  make([]int32, len(p.CBs)),
	}
	var t shareTables
	var segs []geom.Segment
	for ci, cb := range p.CBs {
		t.cb = cb
		groups := 1
		for i, d := range axisOrder {
			t.opts[i] = t.opts[i][:0]
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
				tile := int32(e.ID(p.Width))
				t.opts[i] = append(t.opts[i], eirOption{eir{tile, int32(len(segs))}, e, int32(key)})
				s.optTile = append(s.optTile, tile)
				segs = append(segs, geom.Seg(cb, e))
			}
			groups *= 1 + len(t.opts[i])
		}
		s.segBase[ci+1] = int32(len(segs))
		t.fill(p, s.isCB)
		// Informed expansion order: statically promising groups first, so
		// MCTS spends its visit budget discriminating among strong
		// candidates instead of warming up weak ones. The rollout evaluation
		// remains the judge.
		t.groups = t.enumerate(p.MaxEIRsPerCB, 0, [4]int{}, cand{key: int32(100 * p.MaxEIRsPerCB)}, slices.Grow(t.groups[:0], groups))
		s.cands[ci] = t.sortByKey()
		s.masks[ci] = make([]uint64, len(s.cands[ci]))
		for k, c := range s.cands[ci] {
			for _, e := range c.eirs[:c.n] {
				s.masks[ci][k] |= 1 << uint(e.seg-s.segBase[ci])
			}
		}
	}

	n := len(segs)
	words := (n + 63) / 64
	s.cross = make([]uint64, n*words)
	s.present = make([]uint64, words)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if geom.ProperCrossing(segs[i], segs[j]) {
				s.cross[i*words+j>>6] |= 1 << (uint(j) & 63)
				s.cross[j*words+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return s
}

// eirOption is one choice for one direction of a group, with its summand of
// the group's static preference key.
type eirOption struct {
	eir
	at  geom.Point
	key int32
}

// shareTables is one CB's separable share tables, the scratch newSearch
// builds the CB's groups from.
//
// injectorsFor makes a destination's injectors depend only on the EIRs of
// the one or two directions toward it, so the non-CB destinations fall into
// eight classes — the four axes and the four quadrants around the CB — and
// a class's hops and loads depend only on the options taken in its
// directions. A group's cbEval is the sum of its eight class entries plus
// its own links; all integers, so exactly what evalCB computes.
type shareTables struct {
	cb   geom.Point
	opts [4][]eirOption // per direction in axisOrder, nearest first
	m    int            // 1 + the most options of any direction
	axis []cbEval       // [a*m+o]: axis a's share when direction a takes option o (0: none, i: opts[a][i-1])
	quad []cbEval       // [quadAt(h, v, oh, ov)]: quadrant (h, v)'s share when h takes oh and v takes ov

	groups []cand  // the CB's groups in enumeration order
	slot   []int32 // scratch of sortByKey
}

// quadAt indexes the quadrant between directions h (East or West: axisOrder
// index 0 or 1) and v (South or North: 2 or 3) with options oh and ov.
func (t *shareTables) quadAt(h, v, oh, ov int) int {
	return ((2*h+v-2)*t.m+oh)*t.m + ov
}

// point returns direction a's option o; option 0 (none) is the CB itself.
func (t *shareTables) point(a, o int) geom.Point {
	if o == 0 {
		return t.cb
	}
	return t.opts[a][o-1].at
}

// fill computes every class's share for every combination of options.
func (t *shareTables) fill(p Problem, isCB geom.TileSet) {
	t.m = 1
	for _, o := range t.opts {
		t.m = max(t.m, 1+len(o))
	}
	t.axis = resize(t.axis, 4*t.m)
	t.quad = resize(t.quad, 4*t.m*t.m)
	cb := t.cb
	id := -1
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			id++
			if isCB.Has(id) {
				continue
			}
			dst := geom.Pt(x, y)
			// The directions toward dst, as axisOrder indices (-1: none).
			h, v := -1, -1
			if x > cb.X {
				h = 0
			} else if x < cb.X {
				h = 1
			}
			if y > cb.Y {
				v = 2
			} else if y < cb.Y {
				v = 3
			}
			eirs := eirsByDir{cb, cb, cb, cb, cb}
			if h < 0 || v < 0 {
				a := max(h, v)
				for o := range len(t.opts[a]) + 1 {
					eirs[axisOrder[a]] = t.point(a, o)
					t.axis[a*t.m+o].addDest(cb, &eirs, dst)
				}
				continue
			}
			for oh := range len(t.opts[h]) + 1 {
				eirs[axisOrder[h]] = t.point(h, oh)
				for ov := range len(t.opts[v]) + 1 {
					eirs[axisOrder[v]] = t.point(v, ov)
					t.quad[t.quadAt(h, v, oh, ov)].addDest(cb, &eirs, dst)
				}
			}
		}
	}
}

// resize returns buf with length n, zeroed.
func resize(buf []cbEval, n int) []cbEval {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// enumerate appends to out every extension of cur by one option (or none)
// per remaining direction, none first, that respects maxEIRs, each with its
// evaluation share. at[a] is the option direction a took (0: none).
func (t *shareTables) enumerate(maxEIRs, dim int, at [4]int, cur cand, out []cand) []cand {
	if dim == len(t.opts) {
		if int(cur.n) > maxEIRs {
			return out
		}
		for a := range at {
			cur.ev.addShare(&t.axis[a*t.m+at[a]])
		}
		for h := 0; h < 2; h++ {
			for v := 2; v < 4; v++ {
				cur.ev.addShare(&t.quad[t.quadAt(h, v, at[h], at[v])])
			}
		}
		for _, l := range cur.ev.load2 {
			cur.maxLoad2 = max(cur.maxLoad2, l)
			cur.sumLoad2 += l
		}
		return append(out, cur)
	}
	out = t.enumerate(maxEIRs, dim+1, at, cur, out)
	for i, o := range t.opts[dim] {
		next := cur
		next.eirs[next.n] = o.eir
		next.n++
		next.key += o.key
		next.ev.addLink(t.cb, o.at)
		at[dim] = i + 1
		out = t.enumerate(maxEIRs, dim+1, at, next, out)
	}
	return out
}

// sortByKey returns the enumerated groups stable-sorted by their static
// preference key, in a new slice. It is a counting sort: the keys span a
// few hundred values, and a comparison sort would spend its time moving
// whole groups.
func (t *shareTables) sortByKey() []cand {
	lo, hi := t.groups[0].key, t.groups[0].key
	for _, c := range t.groups {
		lo, hi = min(lo, c.key), max(hi, c.key)
	}
	t.slot = slices.Grow(t.slot[:0], int(hi-lo)+1)[:hi-lo+1]
	clear(t.slot)
	for _, c := range t.groups {
		t.slot[c.key-lo]++
	}
	next := int32(0)
	for k, n := range t.slot {
		t.slot[k], next = next, next+n
	}
	out := make([]cand, len(t.groups))
	for _, c := range t.groups {
		out[t.slot[c.key-lo]] = c
		t.slot[c.key-lo]++
	}
	return out
}

// takenMask returns the option tiles of CB ci that taken holds, as bits of
// masks[ci]: a group is legal under taken iff its mask and this are disjoint.
func (s *search) takenMask(ci int, taken geom.TileSet) uint64 {
	var m uint64
	for j, tile := range s.optTile[s.segBase[ci]:s.segBase[ci+1]] {
		if taken.Has(int(tile)) {
			m |= 1 << uint(j)
		}
	}
	return m
}

// nextLegal returns the first group of CB ci at or after from in the static
// order that is legal under taken, or -1.
func (s *search) nextLegal(ci, from int, taken geom.TileSet) int32 {
	m := s.takenMask(ci, taken)
	masks := s.masks[ci]
	for k := from; k < len(masks); k++ {
		if masks[k]&m == 0 {
			return int32(k)
		}
	}
	return -1
}

// countLegal returns how many groups of CB ci are legal under taken.
func (s *search) countLegal(ci int, taken geom.TileSet) int {
	m := s.takenMask(ci, taken)
	n := 0
	for _, mask := range s.masks[ci] {
		if mask&m == 0 {
			n++
		}
	}
	return n
}

// kthLegal returns the k-th (from 0) group of CB ci legal under taken, or -1.
func (s *search) kthLegal(ci, k int, taken geom.TileSet) int32 {
	m := s.takenMask(ci, taken)
	for i, mask := range s.masks[ci] {
		if mask&m == 0 {
			if k == 0 {
				return int32(i)
			}
			k--
		}
	}
	return -1
}

// choose records group k as CB ci's and marks its EIRs in taken.
func (s *search) choose(ci int, k int32, taken geom.TileSet) {
	s.choice[ci] = k
	c := &s.cands[ci][k]
	for _, e := range c.eirs[:c.n] {
		taken.Add(int(e.tile))
	}
}

// evaluate scores the assignment in choice: a sum of per-(CB, group)
// shares, plus the crossings among its links. Each crossing is counted once,
// by the later CB's link against the links of the CBs before it, which all
// lie in the first ⌈segBase[ci]/64⌉ words of present; no two links of one
// group cross (they only share the CB's end).
func (s *search) evaluate() Evaluation {
	var t totals
	present := s.present
	clear(present)
	words := len(present)
	crossings := 0
	for ci, k := range s.choice {
		c := &s.cands[ci][k]
		t.add(&c.ev)
		t.maxLoad2 = max(t.maxLoad2, int(c.maxLoad2))
		t.sumLoad2 += int(c.sumLoad2)
		base := uint(s.segBase[ci])
		before := present[:(base+63)>>6]
		for _, e := range c.eirs[:c.n] {
			row := s.cross[int(e.seg)*words:][:len(before)]
			for w, m := range before {
				crossings += bits.OnesCount64(row[w] & m)
			}
		}
		if mask := s.masks[ci][k]; mask != 0 {
			present[base>>6] |= mask << (base & 63)
			if w := base>>6 + 1; int(w) < words {
				present[w] |= mask >> (64 - base&63)
			}
		}
	}
	return s.p.finish(t, s.isCB, crossings)
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
