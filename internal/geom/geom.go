// Package geom provides the small amount of 2-D grid geometry shared by the
// placement, interposer, and MCTS packages: tile coordinates on a mesh,
// Manhattan distances, directions, and exact segment-intersection tests used
// to count redistribution-layer (RDL) wire crossings.
//
// Coordinates follow the usual mesh convention: X grows to the right
// (columns), Y grows downward (rows). A tile at (x, y) on a W×H mesh has the
// node ID y*W + x.
package geom

import (
	"fmt"
	"math/bits"
)

// Point is a tile coordinate on the mesh grid.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// In reports whether p lies on a w×h grid.
func (p Point) In(w, h int) bool { return p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h }

// ID returns the node ID of p on a grid of width w.
func (p Point) ID(w int) int { return p.Y*w + p.X }

// FromID returns the Point for a node ID on a grid of width w.
func FromID(id, w int) Point { return Point{X: id % w, Y: id / w} }

// TileSet is a set of tiles of one mesh: a bitset over node IDs.
type TileSet []uint64

// NewTileSet returns an empty set for a mesh of the given tile count.
func NewTileSet(tiles int) TileSet { return make(TileSet, (tiles+63)/64) }

// Has reports whether the tile with node ID id is in the set.
func (s TileSet) Has(id int) bool { return s[id>>6]>>(uint(id)&63)&1 != 0 }

// Add puts the tile with node ID id into the set.
func (s TileSet) Add(id int) { s[id>>6] |= 1 << (uint(id) & 63) }

// Remove takes the tile with node ID id out of the set.
func (s TileSet) Remove(id int) { s[id>>6] &^= 1 << (uint(id) & 63) }

// Len returns the number of tiles in the set.
func (s TileSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Manhattan returns the Manhattan (L1) distance between p and q.
func Manhattan(p, q Point) int { return abs(p.X-q.X) + abs(p.Y-q.Y) }

// Chebyshev returns the L∞ distance between p and q; two tiles are in each
// other's 8-neighbourhood ("hot zone") exactly when this is 1.
func Chebyshev(p, q Point) int { return max(abs(p.X-q.X), abs(p.Y-q.Y)) }

// Direction is one of the four mesh port directions plus Local.
type Direction int

// Mesh port directions. The zero value is Local (the NI port).
const (
	Local Direction = iota
	East            // +X
	West            // -X
	South           // +Y
	North           // -Y
	NumDirections
)

var dirNames = [...]string{"Local", "East", "West", "South", "North"}

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return dirNames[d]
}

// Delta returns the unit coordinate offset of the direction. Local is (0,0).
func (d Direction) Delta() Point {
	switch d {
	case East:
		return Point{1, 0}
	case West:
		return Point{-1, 0}
	case South:
		return Point{0, 1}
	case North:
		return Point{0, -1}
	}
	return Point{}
}

// Opposite returns the reverse direction; Local is its own opposite.
func (d Direction) Opposite() Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case South:
		return North
	case North:
		return South
	}
	return Local
}

// DirTowards returns the one or two minimal-path directions from src toward
// dst on a mesh. If src == dst it returns no directions.
func DirTowards(src, dst Point) []Direction {
	return AppendDirTowards(nil, src, dst)
}

// AppendDirTowards appends the productive directions from src to dst onto
// dirs and returns the extended slice. The allocation-free variant of
// DirTowards for per-cycle hot paths that reuse a scratch buffer.
func AppendDirTowards(dirs []Direction, src, dst Point) []Direction {
	if dst.X > src.X {
		dirs = append(dirs, East)
	} else if dst.X < src.X {
		dirs = append(dirs, West)
	}
	if dst.Y > src.Y {
		dirs = append(dirs, South)
	} else if dst.Y < src.Y {
		dirs = append(dirs, North)
	}
	return dirs
}

// Segment is a straight wire segment between two tile centres. Interposer
// links in this code base are axis-aligned or diagonal straight runs between
// tile coordinates.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("%v-%v", s.A, s.B) }

// cross returns the z component of (b-a) × (c-a): >0 counter-clockwise,
// <0 clockwise, 0 collinear.
func cross(a, b, c Point) int {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// ProperCrossing reports whether the two segments cross at a point interior
// to both (a true wire crossing that forces an extra RDL metal layer).
// Touching at endpoints — two links fanning out of the same CB's µbump, or
// one wire terminating at a tile another wire's route passes by — is not a
// crossing: within a >1 mm tile pitch the RDL router trivially offsets the
// tracks. Collinear overlap of distinct wires is a crossing because the
// wires would contend for the whole shared track.
func ProperCrossing(s1, s2 Segment) bool {
	d1 := cross(s2.A, s2.B, s1.A)
	d2 := cross(s2.A, s2.B, s1.B)
	d3 := cross(s1.A, s1.B, s2.A)
	d4 := cross(s1.A, s1.B, s2.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true // strict interior crossing
	}
	// Collinear cases: overlap longer than a single shared endpoint is a
	// track conflict.
	if d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0 {
		return collinearOverlap(s1, s2)
	}
	return false
}

// collinearOverlap reports whether two collinear segments overlap in more
// than a single point.
func collinearOverlap(s1, s2 Segment) bool {
	// Project on the dominant axis.
	useX := s1.A.X != s1.B.X || s2.A.X != s2.B.X
	var a1, b1, a2, b2 int
	if useX {
		a1, b1 = minmax(s1.A.X, s1.B.X)
		a2, b2 = minmax(s2.A.X, s2.B.X)
	} else {
		a1, b1 = minmax(s1.A.Y, s1.B.Y)
		a2, b2 = minmax(s2.A.Y, s2.B.Y)
	}
	lo := max(a1, a2)
	hi := min(b1, b2)
	return lo < hi
}

// CountCrossings returns the number of unordered segment pairs that properly
// cross, i.e. the number of RDL crossing points the wire set needs.
func CountCrossings(segs []Segment) int {
	n := 0
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if ProperCrossing(segs[i], segs[j]) {
				n++
			}
		}
	}
	return n
}

// MinRDLLayers returns a lower bound on the number of RDL metal layers
// needed to route the wire set: it greedily colours the crossing graph. A
// crossing-free set needs exactly one layer, matching the paper's §6.6
// observation that both Interposer-CMesh and EquiNox need only one RDL.
func MinRDLLayers(segs []Segment) int {
	if len(segs) == 0 {
		return 0
	}
	// Build crossing adjacency.
	adj := make([][]int, len(segs))
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if ProperCrossing(segs[i], segs[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	colour := make([]int, len(segs))
	for i := range colour {
		colour[i] = -1
	}
	layers := 1
	for i := range segs {
		used := map[int]bool{}
		for _, j := range adj[i] {
			if colour[j] >= 0 {
				used[colour[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colour[i] = c
		if c+1 > layers {
			layers = c + 1
		}
	}
	return layers
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minmax(a, b int) (int, int) {
	if a <= b {
		return a, b
	}
	return b, a
}
