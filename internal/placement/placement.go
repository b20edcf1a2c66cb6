// Package placement implements last-level cache-bank (CB) placements for
// mesh NoCs, including the classic Top / Side / Diagonal / Diamond layouts,
// the paper's N-Queen based placement with its hot-zone scoring policy
// (EquiNox §4.2), the knight-move layout for more CBs than rows (§6.8), and
// pruned N-Queen layouts for fewer CBs than rows.
package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"equinox/internal/geom"
)

// Placement is a set of CB tile positions on a W×H mesh.
type Placement struct {
	Width, Height int
	CBs           []geom.Point
}

// Kind names a placement strategy.
type Kind int

// The placement strategies compared in the paper (Figure 4) plus the
// knight-move variant used when #CBs exceeds the mesh dimension.
const (
	Top Kind = iota
	Side
	Diagonal
	Diamond
	NQueen
	KnightMove
)

var kindNames = [...]string{"Top", "Side", "Diagonal", "Diamond", "NQueen", "KnightMove"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists all placement strategies in Figure 4 order.
func Kinds() []Kind { return []Kind{Top, Side, Diagonal, Diamond, NQueen} }

// New returns the placement of n CBs on a w×h mesh using strategy k.
// For NQueen it returns the best-scoring N-Queen placement (see BestNQueen).
// A placement it returns is valid (see Validate); where strategy k cannot
// place n distinct CBs on the mesh, New returns an error instead.
func New(k Kind, w, h, n int) (Placement, error) {
	if w < 1 || h < 1 || n < 1 || n > w*h {
		return Placement{}, fmt.Errorf("placement: %d CBs do not fit a %dx%d mesh", n, w, h)
	}
	var pl Placement
	switch k {
	case Top:
		pl = topPlacement(w, h, n)
	case Side:
		pl = sidePlacement(w, h, n)
	case Diagonal:
		pl = diagonalPlacement(w, h, n)
	case Diamond:
		pl = diamondPlacement(w, h, n)
	case NQueen:
		var err error
		if pl, err = BestNQueen(w, h, n); err != nil {
			return Placement{}, err
		}
	case KnightMove:
		pl = KnightMovePlacement(w, h, n)
	default:
		return Placement{}, fmt.Errorf("placement: unknown kind %d", int(k))
	}
	if err := pl.Validate(); err != nil {
		return Placement{}, fmt.Errorf("%v placement of %d CBs on %dx%d: %w", k, n, w, h, err)
	}
	return pl, nil
}

// Contains reports whether tile p holds a CB.
func (pl Placement) Contains(p geom.Point) bool {
	for _, cb := range pl.CBs {
		if cb == p {
			return true
		}
	}
	return false
}

// Validate checks that all CBs are on the mesh and mutually distinct.
func (pl Placement) Validate() error {
	if pl.Width <= 0 || pl.Height <= 0 {
		return fmt.Errorf("placement: invalid mesh %dx%d", pl.Width, pl.Height)
	}
	seen := map[geom.Point]bool{}
	for _, cb := range pl.CBs {
		if !cb.In(pl.Width, pl.Height) {
			return fmt.Errorf("placement: CB %v outside %dx%d mesh", cb, pl.Width, pl.Height)
		}
		if seen[cb] {
			return fmt.Errorf("placement: duplicate CB at %v", cb)
		}
		seen[cb] = true
	}
	return nil
}

// topPlacement puts the CBs on the top row, centred.
func topPlacement(w, h, n int) Placement {
	pl := Placement{Width: w, Height: h}
	start := (w - n) / 2
	if start < 0 {
		start = 0
	}
	for i := 0; i < n; i++ {
		x := (start + i) % w
		pl.CBs = append(pl.CBs, geom.Pt(x, 0))
	}
	return pl
}

// sidePlacement splits the CBs between the left and right columns.
func sidePlacement(w, h, n int) Placement {
	pl := Placement{Width: w, Height: h}
	left := (n + 1) / 2
	right := n - left
	for i := 0; i < left; i++ {
		y := i * h / left
		pl.CBs = append(pl.CBs, geom.Pt(0, y))
	}
	for i := 0; i < right; i++ {
		y := i * h / right
		pl.CBs = append(pl.CBs, geom.Pt(w-1, y))
	}
	return pl
}

// diagonalPlacement spreads the CBs along the main diagonal.
func diagonalPlacement(w, h, n int) Placement {
	pl := Placement{Width: w, Height: h}
	for i := 0; i < n; i++ {
		x := i * w / n
		y := i * h / n
		pl.CBs = append(pl.CBs, geom.Pt(x, y))
	}
	return pl
}

// diamondPlacement arranges the CBs on a rhombus ring around the mesh
// centre, the Diamond pattern of Abts et al. [21] that the paper's
// SingleBase/SeparateBase schemes use. Faithful to the original, the ring
// contains diagonally adjacent CB pairs — the wire-intersection and
// contention hazard Figure 4 calls out on Diamond/Diagonal.
func diamondPlacement(w, h, n int) Placement {
	pl := Placement{Width: w, Height: h}
	cx, cy := w/2, h/2
	r := min(w, h)/2 - 1
	if r < 1 {
		r = 1
	}
	// Enumerate the ring |x-cx|+|y-cy| = r in angular order.
	var ring []geom.Point
	for d := 0; d < r; d++ { // E→S quadrant
		ring = append(ring, geom.Pt(cx+r-d, cy+d))
	}
	for d := 0; d < r; d++ { // S→W
		ring = append(ring, geom.Pt(cx-d, cy+r-d))
	}
	for d := 0; d < r; d++ { // W→N
		ring = append(ring, geom.Pt(cx-r+d, cy-d))
	}
	for d := 0; d < r; d++ { // N→E
		ring = append(ring, geom.Pt(cx+d, cy-r+d))
	}
	used := map[geom.Point]bool{}
	for i := 0; i < n; i++ {
		p := ring[i*len(ring)/n%len(ring)]
		// More CBs than ring tiles collide: take the next free tile in
		// row-major order, wrapping around the mesh. New admits at most w·h
		// CBs, so one is free.
		for used[p] {
			p = geom.FromID((p.ID(w)+1)%(w*h), w)
		}
		used[p] = true
		pl.CBs = append(pl.CBs, p)
	}
	return pl
}

// queens is the one N-Queen backtracker: it places a queen per row of an
// n×n board, trying each row's columns in the sequence order returns, and
// hands every complete solution to found as column positions (sol[row] =
// column of the queen in that row). sol is reused, so found copies what it
// keeps. The search stops as soon as found returns false.
func queens(n int, order func() []int, found func(sol []int) bool) {
	cols := make([]int, n)
	colUsed := make([]bool, n)
	diagUsed := make([]bool, 2*n)  // row+col
	adiagUsed := make([]bool, 2*n) // row-col+n
	var place func(row int) bool   // false once found has stopped the search
	place = func(row int) bool {
		if row == n {
			return found(cols)
		}
		for _, c := range order() {
			if colUsed[c] || diagUsed[row+c] || adiagUsed[row-c+n] {
				continue
			}
			cols[row] = c
			colUsed[c], diagUsed[row+c], adiagUsed[row-c+n] = true, true, true
			more := place(row + 1)
			colUsed[c], diagUsed[row+c], adiagUsed[row-c+n] = false, false, false
			if !more {
				return false
			}
		}
		return true
	}
	place(0)
}

// NQueenSolutions returns every N-Queen solution on an n×n board as column
// positions, trying columns in ascending order. For n = 8 there are exactly
// 92 solutions, as the paper notes.
func NQueenSolutions(n int) [][]int {
	asc := make([]int, n)
	for i := range asc {
		asc[i] = i
	}
	var sols [][]int
	queens(n, func() []int { return asc }, func(sol []int) bool {
		sols = append(sols, slices.Clone(sol))
		return true
	})
	return sols
}

// SampleNQueenSolutions returns up to count distinct N-Queen solutions on an
// n×n board: each of up to 4·count attempts is a backtracking search in a
// random column order per row (rng.Perm) that keeps its first solution. It
// is used for boards too large to enumerate exhaustively.
func SampleNQueenSolutions(n, count int, rng *rand.Rand) [][]int {
	seen := map[string]bool{}
	var sols [][]int
	for attempt := 0; attempt < count*4 && len(sols) < count; attempt++ {
		queens(n, func() []int { return rng.Perm(n) }, func(sol []int) bool {
			if key := fmt.Sprint(sol); !seen[key] {
				seen[key] = true
				sols = append(sols, slices.Clone(sol))
			}
			return false
		})
	}
	return sols
}

// FromQueenSolution converts an N-Queen column vector to a Placement on an
// n×n mesh (one CB per row).
func FromQueenSolution(sol []int) Placement {
	n := len(sol)
	pl := Placement{Width: n, Height: n}
	for row, col := range sol {
		pl.CBs = append(pl.CBs, geom.Pt(col, row))
	}
	return pl
}

// hotZoneCover counts, per tile (row-major), the CBs whose hot zone (DAZ or
// CAZ) covers it, saturating at 2: a tile is a hot-zone overlap exactly when
// its count is 2. It reuses grid's storage when that is large enough.
func hotZoneCover(pl Placement, grid []uint8) []uint8 {
	if n := pl.Width * pl.Height; n <= cap(grid) {
		grid = grid[:n]
		clear(grid)
	} else {
		grid = make([]uint8, n)
	}
	for _, cb := range pl.CBs {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				p := geom.Pt(cb.X+dx, cb.Y+dy)
				if (dx != 0 || dy != 0) && p.In(pl.Width, pl.Height) && grid[p.ID(pl.Width)] < 2 {
					grid[p.ID(pl.Width)]++
				}
			}
		}
	}
	return grid
}

// Score implements the paper's penalty scoring policy: for every tile, count
// how many of its four direct neighbours are hot-zone overlaps (m) and add
// the triangular penalty 1+2+…+m, reflecting the compounded delay of
// multiple adjacent overlaps. Lower is better.
func Score(pl Placement) int {
	s, _ := score(pl, nil)
	return s
}

// score is Score on a reusable hot-zone grid, which it returns.
func score(pl Placement, grid []uint8) (int, []uint8) {
	grid = hotZoneCover(pl, grid)
	w, h := pl.Width, pl.Height
	total := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id, m := y*w+x, 0
			if x+1 < w && grid[id+1] == 2 {
				m++
			}
			if x > 0 && grid[id-1] == 2 {
				m++
			}
			if y+1 < h && grid[id+w] == 2 {
				m++
			}
			if y > 0 && grid[id-w] == 2 {
				m++
			}
			total += m * (m + 1) / 2
		}
	}
	return total, grid
}

// BestNQueen returns the lowest-scoring N-Queen placement of n CBs on a w×h
// mesh. The board side is min(w,h); the queen board is anchored at the mesh
// origin. If n is smaller than the board side, redundant CBs are pruned from
// each solution (every subset of size n is scored for small deficits, random
// subsets otherwise) per the paper's §6.8. If n exceeds the board side, use
// KnightMovePlacement instead; BestNQueen returns an error.
//
// Ties are broken deterministically by the lexicographic order of the CB
// list so repeated runs select the same placement.
func BestNQueen(w, h, n int) (Placement, error) {
	side := w
	if h < side {
		side = h
	}
	if n > side {
		return Placement{}, fmt.Errorf("placement: %d CBs exceed board side %d; use KnightMove", n, side)
	}
	rng := rand.New(rand.NewSource(1))
	var sols [][]int
	if side <= 8 {
		// Small boards: enumerate everything (92 solutions for 8×8).
		sols = NQueenSolutions(side)
	} else {
		// Larger boards: the paper "generates a number of N-Queen placements
		// and the least penalized one is selected". Sample via randomized
		// backtracking.
		sols = SampleNQueenSolutions(side, 128, rng)
	}
	if len(sols) == 0 {
		return Placement{}, fmt.Errorf("placement: no N-Queen solution for side %d", side)
	}
	best := Placement{}
	bestScore := int(^uint(0) >> 1)
	var grid []uint8 // hot-zone scratch shared by every candidate's score
	for _, sol := range sols {
		full := FromQueenSolution(sol)
		full.Width, full.Height = w, h
		cands := prunedCandidates(full, n, rng)
		for _, cand := range cands {
			var s int
			s, grid = score(cand, grid)
			if s < bestScore || (s == bestScore && lexLess(cand.CBs, best.CBs)) {
				bestScore = s
				best = cand
			}
		}
	}
	return best, nil
}

// prunedCandidates returns placements of exactly n CBs taken from pl. When
// few CBs must be removed, all subsets are enumerated; otherwise a fixed
// number of random prunings is sampled.
func prunedCandidates(pl Placement, n int, rng *rand.Rand) []Placement {
	k := len(pl.CBs)
	if n == k {
		return []Placement{pl}
	}
	remove := k - n
	var out []Placement
	if remove <= 2 { // C(16,2)=120 worst realistic case: enumerate
		idx := make([]int, remove)
		var rec func(start, d int)
		rec = func(start, d int) {
			if d == remove {
				out = append(out, withoutIndices(pl, idx))
				return
			}
			for i := start; i < k; i++ {
				idx[d] = i
				rec(i+1, d+1)
			}
		}
		rec(0, 0)
		return out
	}
	for s := 0; s < 32; s++ {
		perm := rng.Perm(k)[:remove]
		sort.Ints(perm)
		out = append(out, withoutIndices(pl, perm))
	}
	return out
}

func withoutIndices(pl Placement, idx []int) Placement {
	drop := map[int]bool{}
	for _, i := range idx {
		drop[i] = true
	}
	q := Placement{Width: pl.Width, Height: pl.Height}
	for i, cb := range pl.CBs {
		if !drop[i] {
			q.CBs = append(q.CBs, cb)
		}
	}
	return q
}

func lexLess(a, b []geom.Point) bool {
	if len(b) == 0 {
		return false
	}
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

// KnightMovePlacement places n CBs following the knight-move shape (§6.8),
// used when n exceeds the mesh dimension so some row/column/diagonal sharing
// is unavoidable. Successive CBs are a knight's move apart, wrapping across
// the board, which provably minimizes row/column/diagonal co-occupancy.
func KnightMovePlacement(w, h, n int) Placement {
	pl := Placement{Width: w, Height: h}
	used := map[geom.Point]bool{}
	p := geom.Pt(1, 0)
	for len(pl.CBs) < n {
		if !used[p] {
			pl.CBs = append(pl.CBs, p)
			used[p] = true
		}
		// Knight step (+2, +1) with wraparound; on collision walk forward.
		q := geom.Pt((p.X+2)%w, (p.Y+1)%h)
		for used[q] && len(used) < w*h {
			q = geom.Pt((q.X+1)%w, q.Y)
			if q.X == 0 {
				q.Y = (q.Y + 1) % h
			}
		}
		if len(used) >= w*h {
			break
		}
		p = q
	}
	return pl
}
