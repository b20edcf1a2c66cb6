package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"equinox/internal/geom"
)

func TestNQueenSolutionCounts(t *testing.T) {
	// Known N-Queen solution counts; the paper cites 92 for 8×8.
	want := map[int]int{1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352}
	for n, w := range want {
		if got := len(NQueenSolutions(n)); got != w {
			t.Errorf("NQueenSolutions(%d): got %d, want %d", n, got, w)
		}
	}
}

func TestNQueenSolutionsValid(t *testing.T) {
	for _, sol := range NQueenSolutions(8) {
		pl := FromQueenSolution(sol)
		for i := 0; i < len(pl.CBs); i++ {
			for j := i + 1; j < len(pl.CBs); j++ {
				if geom.QueenAttacks(pl.CBs[i], pl.CBs[j]) {
					t.Fatalf("solution %v has attacking queens %v %v", sol, pl.CBs[i], pl.CBs[j])
				}
			}
		}
	}
}

func TestAllKindsValid(t *testing.T) {
	for _, k := range Kinds() {
		pl, err := New(k, 8, 8, 8)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if len(pl.CBs) != 8 {
			t.Errorf("%v: got %d CBs, want 8", k, len(pl.CBs))
		}
	}
}

func TestKindString(t *testing.T) {
	if Top.String() != "Top" || NQueen.String() != "NQueen" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("got %q", Kind(42).String())
	}
}

func TestTopPlacementOnTopRow(t *testing.T) {
	pl, _ := New(Top, 8, 8, 8)
	for _, cb := range pl.CBs {
		if cb.Y != 0 {
			t.Errorf("Top CB %v not on row 0", cb)
		}
	}
}

func TestSidePlacementOnEdges(t *testing.T) {
	pl, _ := New(Side, 8, 8, 8)
	for _, cb := range pl.CBs {
		if cb.X != 0 && cb.X != 7 {
			t.Errorf("Side CB %v not on an edge column", cb)
		}
	}
}

func TestNQueenPlacementNoAttacks(t *testing.T) {
	pl, err := New(NQueen, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pl.CBs); i++ {
		for j := i + 1; j < len(pl.CBs); j++ {
			if geom.QueenAttacks(pl.CBs[i], pl.CBs[j]) {
				t.Errorf("N-Queen placement has attacking pair %v %v", pl.CBs[i], pl.CBs[j])
			}
		}
	}
	s := Alignments(pl)
	if s.RowPairs+s.ColPairs+s.DiagPairs != 0 {
		t.Errorf("N-Queen placement has alignments: %+v", s)
	}
}

func TestNQueenBeatsClassicPlacements(t *testing.T) {
	// The paper's motivation: N-Queen minimizes the hot-zone score relative
	// to Top and Side. (Diamond/Diagonal are closer but still >= N-Queen.)
	scores := map[Kind]int{}
	for _, k := range Kinds() {
		pl, err := New(k, 8, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		scores[k] = Score(pl)
	}
	if scores[NQueen] > scores[Top] || scores[NQueen] > scores[Side] {
		t.Errorf("N-Queen score %d should not exceed Top %d / Side %d",
			scores[NQueen], scores[Top], scores[Side])
	}
	if scores[NQueen] > scores[Diamond] {
		t.Errorf("N-Queen score %d should not exceed Diamond %d", scores[NQueen], scores[Diamond])
	}
}

func TestBestNQueenDeterministic(t *testing.T) {
	a, err := BestNQueen(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BestNQueen(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CBs) != len(b.CBs) {
		t.Fatal("non-deterministic CB count")
	}
	for i := range a.CBs {
		if a.CBs[i] != b.CBs[i] {
			t.Fatalf("non-deterministic placement: %v vs %v", a.CBs, b.CBs)
		}
	}
}

func TestBestNQueenFewerCBs(t *testing.T) {
	// §6.8: fewer CBs than N — prune redundant queens, still valid and
	// attack-free (a subset of a solution cannot create attacks).
	pl, err := BestNQueen(8, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.CBs) != 6 {
		t.Fatalf("got %d CBs, want 6", len(pl.CBs))
	}
	for i := 0; i < len(pl.CBs); i++ {
		for j := i + 1; j < len(pl.CBs); j++ {
			if geom.QueenAttacks(pl.CBs[i], pl.CBs[j]) {
				t.Errorf("pruned placement has attacking pair")
			}
		}
	}
}

func TestBestNQueenTooMany(t *testing.T) {
	if _, err := BestNQueen(8, 8, 9); err == nil {
		t.Error("expected error when CBs exceed board side")
	}
}

func TestKnightMovePlacement(t *testing.T) {
	// §6.8: more CBs than N. 12 CBs on an 8×8.
	pl := KnightMovePlacement(8, 8, 12)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pl.CBs) != 12 {
		t.Fatalf("got %d CBs, want 12", len(pl.CBs))
	}
	// Knight-move placements should have fewer alignments than a row-major
	// fill of the same count.
	rowMajor := Placement{Width: 8, Height: 8}
	for i := 0; i < 12; i++ {
		rowMajor.CBs = append(rowMajor.CBs, geom.Pt(i%8, i/8))
	}
	km := Alignments(pl)
	rm := Alignments(rowMajor)
	kmTotal := km.RowPairs + km.ColPairs + km.DiagPairs
	rmTotal := rm.RowPairs + rm.ColPairs + rm.DiagPairs
	if kmTotal >= rmTotal {
		t.Errorf("knight-move alignments %d not below row-major %d", kmTotal, rmTotal)
	}
}

func TestZoneOf(t *testing.T) {
	cb := geom.Pt(4, 4)
	if ZoneOf(cb, geom.Pt(4, 3)) != DAZ || ZoneOf(cb, geom.Pt(5, 4)) != DAZ {
		t.Error("direct neighbours should be DAZ")
	}
	if ZoneOf(cb, geom.Pt(5, 5)) != CAZ || ZoneOf(cb, geom.Pt(3, 3)) != CAZ {
		t.Error("corners should be CAZ")
	}
	if ZoneOf(cb, geom.Pt(6, 4)) != NoZone || ZoneOf(cb, cb) != NoZone {
		t.Error("distant tiles / self should be NoZone")
	}
}

func TestOverlapMapPaperExample(t *testing.T) {
	// Two CBs two apart horizontally: the DAZ of one meets the CAZ of the
	// other at the tiles between them.
	pl := Placement{Width: 8, Height: 8, CBs: []geom.Point{geom.Pt(2, 2), geom.Pt(4, 3)}}
	ov := OverlapMap(pl)
	if !ov[geom.Pt(3, 2)] {
		t.Error("(3,2) should be an overlap (DAZ of (2,2), CAZ of (4,3))")
	}
	if !ov[geom.Pt(3, 3)] {
		t.Error("(3,3) should be an overlap")
	}
	if ov[geom.Pt(1, 2)] {
		t.Error("(1,2) belongs only to one hot zone")
	}
}

func TestScoreTriangular(t *testing.T) {
	// Construct a placement with no overlaps: a single CB. Score must be 0.
	pl := Placement{Width: 8, Height: 8, CBs: []geom.Point{geom.Pt(4, 4)}}
	if s := Score(pl); s != 0 {
		t.Errorf("single CB score = %d, want 0", s)
	}
	// Far-apart CBs: also 0.
	pl2 := Placement{Width: 8, Height: 8, CBs: []geom.Point{geom.Pt(0, 0), geom.Pt(7, 7)}}
	if s := Score(pl2); s != 0 {
		t.Errorf("far CBs score = %d, want 0", s)
	}
	// Adjacent-ish CBs must be penalized.
	pl3 := Placement{Width: 8, Height: 8, CBs: []geom.Point{geom.Pt(2, 2), geom.Pt(4, 2)}}
	if s := Score(pl3); s <= 0 {
		t.Errorf("close CBs score = %d, want > 0", s)
	}
}

func TestScoreNonNegativeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		pl := Placement{Width: 8, Height: 8}
		used := map[geom.Point]bool{}
		for _, r := range raw {
			p := geom.Pt(int(r%8), int(r/8%8))
			if !used[p] {
				used[p] = true
				pl.CBs = append(pl.CBs, p)
			}
			if len(pl.CBs) == 8 {
				break
			}
		}
		return Score(pl) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalesTo16(t *testing.T) {
	for _, side := range []int{12, 16} {
		pl, err := New(NQueen, side, side, 8)
		if err != nil {
			t.Fatalf("side %d: %v", side, err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("side %d: %v", side, err)
		}
		s := Alignments(pl)
		if s.RowPairs+s.ColPairs+s.DiagPairs != 0 {
			t.Errorf("side %d: pruned N-Queen placement has alignments %+v", side, s)
		}
	}
}

func TestAlignments(t *testing.T) {
	pl := Placement{Width: 8, Height: 8, CBs: []geom.Point{
		geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 4), geom.Pt(2, 2),
	}}
	s := Alignments(pl)
	if s.RowPairs != 1 {
		t.Errorf("RowPairs = %d, want 1", s.RowPairs)
	}
	if s.ColPairs != 1 {
		t.Errorf("ColPairs = %d, want 1", s.ColPairs)
	}
	if s.DiagPairs != 2 { // (0,0)-(2,2) and (0,4)-(2,2)
		t.Errorf("DiagPairs = %d, want 2", s.DiagPairs)
	}
}

func TestContains(t *testing.T) {
	pl := Placement{Width: 8, Height: 8, CBs: []geom.Point{geom.Pt(1, 1)}}
	if !pl.Contains(geom.Pt(1, 1)) || pl.Contains(geom.Pt(0, 0)) {
		t.Error("Contains wrong")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := Placement{Width: 4, Height: 4, CBs: []geom.Point{geom.Pt(5, 0)}}
	if bad.Validate() == nil {
		t.Error("out-of-mesh CB accepted")
	}
	dup := Placement{Width: 4, Height: 4, CBs: []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}}
	if dup.Validate() == nil {
		t.Error("duplicate CB accepted")
	}
	zero := Placement{}
	if zero.Validate() == nil {
		t.Error("zero mesh accepted")
	}
}

// refOverlapMap and refScore are the map-based OverlapMap and Score that
// shipped before the counter-grid rewrite, kept as its oracle.
func refOverlapMap(pl Placement) map[geom.Point]bool {
	count := map[geom.Point]int{}
	for _, cb := range pl.CBs {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				p := geom.Pt(cb.X+dx, cb.Y+dy)
				if p.In(pl.Width, pl.Height) {
					count[p]++
				}
			}
		}
	}
	overlaps := map[geom.Point]bool{}
	for p, c := range count {
		if c >= 2 {
			overlaps[p] = true
		}
	}
	return overlaps
}

func refScore(pl Placement) int {
	overlaps := refOverlapMap(pl)
	total := 0
	for y := 0; y < pl.Height; y++ {
		for x := 0; x < pl.Width; x++ {
			m := 0
			for _, d := range []geom.Direction{geom.East, geom.West, geom.South, geom.North} {
				n := geom.Pt(x, y).Add(d.Delta())
				if n.In(pl.Width, pl.Height) && overlaps[n] {
					m++
				}
			}
			total += m * (m + 1) / 2
		}
	}
	return total
}

func TestScoreMatchesReference(t *testing.T) {
	check := func(pl Placement) {
		t.Helper()
		if got, want := OverlapMap(pl), refOverlapMap(pl); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: OverlapMap = %v, reference %v", pl, got, want)
		}
		if got, want := Score(pl), refScore(pl); got != want {
			t.Fatalf("%+v: Score = %d, reference %d", pl, got, want)
		}
	}
	for side := 2; side <= 12; side++ {
		for _, k := range append(Kinds(), KnightMove) {
			pl, err := New(k, side, side+side%3, side)
			if err != nil {
				continue // no N-Queen solution on 2×2 and 3×3 boards
			}
			check(pl)
		}
	}
	// Arbitrary CB sets: crowded, repeated, on the border and off the mesh.
	rng := rand.New(rand.NewSource(1))
	var grid []uint8
	for trial := 0; trial < 500; trial++ {
		pl := Placement{Width: 1 + rng.Intn(9), Height: 1 + rng.Intn(9)}
		for i := rng.Intn(12); i > 0; i-- {
			pl.CBs = append(pl.CBs, geom.Pt(rng.Intn(pl.Width+2)-1, rng.Intn(pl.Height+2)-1))
		}
		check(pl)
		// The reused scratch grid of BestNQueen carries nothing over.
		var s int
		if s, grid = score(pl, grid); s != refScore(pl) {
			t.Fatalf("%+v: score on a reused grid = %d, reference %d", pl, s, refScore(pl))
		}
	}
}
