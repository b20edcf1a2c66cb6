package geom

import (
	"testing"
	"testing/quick"
)

func TestPointBasics(t *testing.T) {
	p := Pt(3, 5)
	if p.Add(Pt(1, -2)) != Pt(4, 3) {
		t.Errorf("Add: got %v", p.Add(Pt(1, -2)))
	}
	if p.Sub(Pt(1, 1)) != Pt(2, 4) {
		t.Errorf("Sub: got %v", p.Sub(Pt(1, 1)))
	}
	if !p.In(8, 8) {
		t.Error("In(8,8) should hold for (3,5)")
	}
	if p.In(3, 8) {
		t.Error("In(3,8) should fail for x=3")
	}
	if p.String() != "(3,5)" {
		t.Errorf("String: got %q", p.String())
	}
}

func TestIDRoundTrip(t *testing.T) {
	for w := 1; w <= 16; w++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < w; x++ {
				p := Pt(x, y)
				if FromID(p.ID(w), w) != p {
					t.Fatalf("round trip failed for %v width %d", p, w)
				}
			}
		}
	}
}

func TestIDRoundTripProperty(t *testing.T) {
	f := func(id uint16, w8 uint8) bool {
		w := int(w8%16) + 1
		i := int(id) % (w * 64)
		return FromID(i, w).ID(w) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistances(t *testing.T) {
	if d := Manhattan(Pt(0, 0), Pt(3, 4)); d != 7 {
		t.Errorf("Manhattan: got %d, want 7", d)
	}
	if d := Chebyshev(Pt(0, 0), Pt(3, 4)); d != 4 {
		t.Errorf("Chebyshev: got %d, want 4", d)
	}
	if d := Manhattan(Pt(5, 5), Pt(5, 5)); d != 0 {
		t.Errorf("Manhattan same point: got %d", d)
	}
}

func TestManhattanSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a, b := Pt(int(ax), int(ay)), Pt(int(bx), int(by))
		return Manhattan(a, b) == Manhattan(b, a) && Manhattan(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a, b, c := Pt(int(ax), int(ay)), Pt(int(bx), int(by)), Pt(int(cx), int(cy))
		return Manhattan(a, c) <= Manhattan(a, b)+Manhattan(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirections(t *testing.T) {
	for d := Local; d < NumDirections; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("double opposite of %v is %v", d, d.Opposite().Opposite())
		}
	}
	if East.Delta() != Pt(1, 0) || North.Delta() != Pt(0, -1) {
		t.Error("direction deltas wrong")
	}
	if Local.Delta() != Pt(0, 0) {
		t.Error("local delta should be zero")
	}
	if East.String() != "East" {
		t.Errorf("String: got %q", East.String())
	}
	if Direction(99).String() != "Direction(99)" {
		t.Errorf("out of range String: got %q", Direction(99).String())
	}
}

func TestDirTowards(t *testing.T) {
	dirs := DirTowards(Pt(2, 2), Pt(5, 0))
	if len(dirs) != 2 {
		t.Fatalf("expected 2 directions, got %v", dirs)
	}
	seen := map[Direction]bool{}
	for _, d := range dirs {
		seen[d] = true
	}
	if !seen[East] || !seen[North] {
		t.Errorf("expected East+North, got %v", dirs)
	}
	if len(DirTowards(Pt(1, 1), Pt(1, 1))) != 0 {
		t.Error("same point should yield no directions")
	}
	if d := DirTowards(Pt(0, 0), Pt(0, 5)); len(d) != 1 || d[0] != South {
		t.Errorf("axis case: got %v", d)
	}
}

// DirTowards deltas must reduce Manhattan distance by exactly one.
func TestDirTowardsReducesDistance(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := Pt(int(ax%16), int(ay%16))
		b := Pt(int(bx%16), int(by%16))
		for _, d := range DirTowards(a, b) {
			n := a.Add(d.Delta())
			if Manhattan(n, b) != Manhattan(a, b)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// onSegment reports whether collinear point p lies on segment s (inclusive).
func onSegment(s Segment, p Point) bool {
	return min(s.A.X, s.B.X) <= p.X && p.X <= max(s.A.X, s.B.X) &&
		min(s.A.Y, s.B.Y) <= p.Y && p.Y <= max(s.A.Y, s.B.Y)
}

// segmentsIntersect reports whether the two closed segments share any point.
// Endpoint sharing counts as an intersection; RDL wires that merely meet at a
// common µbump are filtered by the caller (see ProperCrossing).
func segmentsIntersect(s1, s2 Segment) bool {
	d1 := cross(s2.A, s2.B, s1.A)
	d2 := cross(s2.A, s2.B, s1.B)
	d3 := cross(s1.A, s1.B, s2.A)
	d4 := cross(s1.A, s1.B, s2.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	if d1 == 0 && onSegment(s2, s1.A) {
		return true
	}
	if d2 == 0 && onSegment(s2, s1.B) {
		return true
	}
	if d3 == 0 && onSegment(s1, s2.A) {
		return true
	}
	if d4 == 0 && onSegment(s1, s2.B) {
		return true
	}
	return false
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		s1, s2 Segment
		want   bool
	}{
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},  // X crossing
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), true}, // perpendicular
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(0, 1), Pt(4, 1)), false}, // parallel
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(2, 0), Pt(4, 0)), true},  // shared endpoint
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(3, 3), Pt(4, 4)), false}, // collinear disjoint
		{Seg(Pt(0, 0), Pt(3, 0)), Seg(Pt(1, 0), Pt(4, 0)), true},  // collinear overlap
		{Seg(Pt(0, 0), Pt(0, 3)), Seg(Pt(1, 0), Pt(1, 3)), false}, // vertical parallel
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(2, 2), Pt(5, 1)), true},  // T junction interior
	}
	for i, c := range cases {
		if got := segmentsIntersect(c.s1, c.s2); got != c.want {
			t.Errorf("case %d: segmentsIntersect(%v,%v) = %v, want %v", i, c.s1, c.s2, got, c.want)
		}
		if got := segmentsIntersect(c.s2, c.s1); got != c.want {
			t.Errorf("case %d: intersect not symmetric", i)
		}
	}
}

func TestProperCrossing(t *testing.T) {
	cases := []struct {
		name   string
		s1, s2 Segment
		want   bool
	}{
		{"X crossing", Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},
		{"shared endpoint fan-out", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(0, 0), Pt(0, 2)), false},
		{"chained at endpoint", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(2, 0), Pt(4, 0)), false},
		{"T junction is routable around", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 0), Pt(2, 3)), false},
		{"collinear overlap", Seg(Pt(0, 0), Pt(3, 0)), Seg(Pt(1, 0), Pt(4, 0)), true},
		{"collinear endpoint touch", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(2, 0), Pt(5, 0)), false},
		{"disjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(3, 3), Pt(4, 3)), false},
		{"diag vs horizontal cross", Seg(Pt(0, 2), Pt(4, 2)), Seg(Pt(1, 0), Pt(3, 4)), true},
	}
	for _, c := range cases {
		if got := ProperCrossing(c.s1, c.s2); got != c.want {
			t.Errorf("%s: ProperCrossing = %v, want %v", c.name, got, c.want)
		}
		if got := ProperCrossing(c.s2, c.s1); got != c.want {
			t.Errorf("%s: ProperCrossing not symmetric", c.name)
		}
	}
}

// A proper crossing implies intersection.
func TestProperCrossingImpliesIntersect(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 int8) bool {
		s1 := Seg(Pt(int(x1%8), int(y1%8)), Pt(int(x2%8), int(y2%8)))
		s2 := Seg(Pt(int(x3%8), int(y3%8)), Pt(int(x4%8), int(y4%8)))
		if ProperCrossing(s1, s2) && !segmentsIntersect(s1, s2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCountCrossings(t *testing.T) {
	// The Figure 3 style example: three crossings among gray-group wires.
	segs := []Segment{
		Seg(Pt(0, 0), Pt(4, 4)),
		Seg(Pt(0, 4), Pt(4, 0)),
		Seg(Pt(2, 0), Pt(2, 4)),
	}
	// diag1 × diag2 = 1 crossing at (2,2); vertical crosses both diagonals at
	// (2,2) as well -> T-junction/interior crossings counted pairwise = 3.
	if got := CountCrossings(segs); got != 3 {
		t.Errorf("CountCrossings = %d, want 3", got)
	}
	if got := CountCrossings(nil); got != 0 {
		t.Errorf("empty: got %d", got)
	}
}

func TestMinRDLLayers(t *testing.T) {
	if got := MinRDLLayers(nil); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	// Crossing-free set: one layer (paper §6.6: one RDL suffices for EquiNox).
	free := []Segment{
		Seg(Pt(0, 0), Pt(2, 0)),
		Seg(Pt(0, 1), Pt(2, 1)),
		Seg(Pt(0, 2), Pt(2, 2)),
	}
	if got := MinRDLLayers(free); got != 1 {
		t.Errorf("crossing-free: got %d layers, want 1", got)
	}
	// One crossing: two layers.
	one := []Segment{
		Seg(Pt(0, 0), Pt(4, 4)),
		Seg(Pt(0, 4), Pt(4, 0)),
	}
	if got := MinRDLLayers(one); got != 2 {
		t.Errorf("one crossing: got %d layers, want 2", got)
	}
}

func TestSegmentString(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if s.String() != "(0,0)-(3,4)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestTileSet(t *testing.T) {
	s := NewTileSet(130) // three words
	if len(s) != 3 || s.Len() != 0 {
		t.Fatalf("NewTileSet(130): %d words, %d tiles", len(s), s.Len())
	}
	ids := []int{0, 63, 64, 129}
	for _, id := range ids {
		s.Add(id)
		s.Add(id) // idempotent
	}
	for id := 0; id < 130; id++ {
		want := id == 0 || id == 63 || id == 64 || id == 129
		if s.Has(id) != want {
			t.Errorf("Has(%d) = %v, want %v", id, s.Has(id), want)
		}
	}
	if s.Len() != len(ids) {
		t.Errorf("Len = %d, want %d", s.Len(), len(ids))
	}
	s.Remove(63)
	s.Remove(5) // absent: no effect
	if s.Has(63) || s.Len() != 3 {
		t.Errorf("after Remove(63): Has = %v, Len = %d", s.Has(63), s.Len())
	}
	if len(NewTileSet(64)) != 1 || len(NewTileSet(65)) != 2 || len(NewTileSet(0)) != 0 {
		t.Error("NewTileSet word count is not ceil(tiles/64)")
	}
}
