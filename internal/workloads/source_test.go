package workloads

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many Uint64 draws a comparison checks: three times
// around the 607-word register, so every slot is overwritten several times.
const sourceDraws = 2000

// checkSourceMatchesStdlib compares source with rand.NewSource, the oracle,
// for one seed: the raw Uint64 stream, then Float64 and Intn (the only draws
// Generator makes) through rand.New.
func checkSourceMatchesStdlib(t *testing.T, seed int64) {
	t.Helper()
	var s source
	s.Seed(seed)
	std := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < sourceDraws; i++ {
		if got, want := s.Uint64(), std.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, stdlib %#x", seed, i, got, want)
		}
	}
	var s2 source
	s2.Seed(seed)
	mine, theirs := rand.New(&s2), rand.New(rand.NewSource(seed))
	for i := 0; i < sourceDraws; i++ {
		if got, want := mine.Float64(), theirs.Float64(); got != want {
			t.Fatalf("seed %d: Float64 draw %d = %v, stdlib %v", seed, i, got, want)
		}
		n := 1 + i%50000
		if got, want := mine.Intn(n), theirs.Intn(n); got != want {
			t.Fatalf("seed %d: Intn(%d) draw %d = %d, stdlib %d", seed, n, i, got, want)
		}
	}
}

// TestSourceMatchesStdlibEdgeSeeds covers the seed reduction's edges: zero
// (which the stdlib replaces by 89482311, so the two must match), the
// modulus and its neighbours, negative seeds, and seeds past 32 bits.
func TestSourceMatchesStdlibEdgeSeeds(t *testing.T) {
	for _, seed := range []int64{
		0, 1, -1, mersenne, -mersenne, mersenne - 1, mersenne + 1, 1 << 31,
		89482311, -89482311, 1 << 62, math.MinInt64, math.MaxInt64, 42,
	} {
		checkSourceMatchesStdlib(t, seed)
	}
}

// TestGeneratorSeedsMatchStdlib checks the seeds sim.NewSystem derives: every
// PE of an 8×8 mesh for the bench's pinned seeds.
func TestGeneratorSeedsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for pe := 0; pe < 64; pe++ {
			checkSourceMatchesStdlib(t, seed^int64(pe)*0x7F4A7C15_9E37_79B9)
		}
	}
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, mersenne, 1 << 31, 89482311, 1 << 62, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(checkSourceMatchesStdlib)
}

// TestGeneratorNextDoesNotAllocate pins the steady state of Next at zero
// allocations, divergent bursts included (bfs, histogram and kmeans diverge;
// myocyte does not).
func TestGeneratorNextDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"bfs", "histogram", "kmeans", "myocyte"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := p.NewGenerator(3, 1<<30, 1)
		for i := 0; i < 10000; i++ { // warm up
			g.Next()
		}
		if a := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				g.Next()
			}
		}); a != 0 {
			t.Errorf("%s: %v allocations per 1000 Next calls, want 0", name, a)
		}
	}
}
