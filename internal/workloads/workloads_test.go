package workloads

import (
	"math"
	"testing"
)

func TestSuiteHas29Benchmarks(t *testing.T) {
	if got := len(Suite()); got != 29 {
		t.Fatalf("suite has %d benchmarks, want 29 (paper §5)", got)
	}
}

func TestSuiteProfilesValid(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Suite() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		names[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("kmeans")
	if err != nil || p.Name != "kmeans" {
		t.Fatalf("ByName(kmeans): %v %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSuiteIsReadDominant(t *testing.T) {
	// §2.2: reply traffic (dominated by read replies) accounts for ~72.7% of
	// bits. That requires a read-dominant suite overall.
	sum := 0.0
	for _, p := range Suite() {
		sum += p.ReadFrac
	}
	if avg := sum / 29; avg < 0.7 {
		t.Errorf("average read fraction %f < 0.7", avg)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ByName("bfs")
	a := p.NewGenerator(3, 500, 42)
	b := p.NewGenerator(3, 500, 42)
	for i := 0; i < 500; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestGeneratorPEStreamsDiffer(t *testing.T) {
	p, _ := ByName("bfs")
	a := p.NewGenerator(0, 200, 42)
	b := p.NewGenerator(1, 200, 42)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 200 {
		t.Error("PE streams identical")
	}
}

func TestGeneratorBudget(t *testing.T) {
	p, _ := ByName("hotspot")
	g := p.NewGenerator(0, 100, 1)
	for i := 0; i < 100; i++ {
		if g.Done() {
			t.Fatalf("done after %d of 100", i)
		}
		g.Next()
	}
	if !g.Done() || g.Remaining() != 0 {
		t.Error("budget accounting wrong")
	}
	if op := g.Next(); op.IsMem {
		t.Error("post-budget ops should be compute no-ops")
	}
}

func TestGeneratorMemRatioApproximate(t *testing.T) {
	for _, name := range []string{"kmeans", "myocyte", "scan"} {
		p, _ := ByName(name)
		g := p.NewGenerator(0, 20000, 7)
		mem := 0
		for i := 0; i < 20000; i++ {
			if g.Next().IsMem {
				mem++
			}
		}
		got := float64(mem) / 20000
		if math.Abs(got-p.MemRatio) > 0.05 {
			t.Errorf("%s: measured mem ratio %f vs profile %f", name, got, p.MemRatio)
		}
	}
}

func TestGeneratorReadFracApproximate(t *testing.T) {
	p, _ := ByName("histogram")
	g := p.NewGenerator(0, 40000, 7)
	reads, mems := 0, 0
	for i := 0; i < 40000; i++ {
		op := g.Next()
		if op.IsMem {
			mems++
			if !op.Write {
				reads++
			}
		}
	}
	got := float64(reads) / float64(mems)
	if math.Abs(got-p.ReadFrac) > 0.05 {
		t.Errorf("measured read frac %f vs profile %f", got, p.ReadFrac)
	}
}

func TestGeneratorAddressesWithinFootprint(t *testing.T) {
	p, _ := ByName("bfs")
	g := p.NewGenerator(2, 5000, 9)
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if !op.IsMem {
			continue
		}
		if op.Addr%LineBytes != 0 {
			t.Fatalf("address %x not line aligned", op.Addr)
		}
		var line uint64
		if op.Addr >= sharedBase {
			line = (op.Addr - sharedBase) / LineBytes
		} else {
			line = (op.Addr & ((1 << 28) - 1)) / LineBytes
		}
		if line >= uint64(p.FootprintLines) {
			t.Fatalf("line %d outside footprint %d", line, p.FootprintLines)
		}
	}
}

func TestGeneratorSharedVsPrivate(t *testing.T) {
	p, _ := ByName("streamcluster") // SharedFrac 0.75
	g := p.NewGenerator(4, 30000, 11)
	shared, mems := 0, 0
	for i := 0; i < 30000; i++ {
		op := g.Next()
		if op.IsMem {
			mems++
			if op.Addr >= sharedBase {
				shared++
			}
		}
	}
	got := float64(shared) / float64(mems)
	if math.Abs(got-p.SharedFrac) > 0.05 {
		t.Errorf("shared fraction %f vs profile %f", got, p.SharedFrac)
	}
}

func TestComputeBoundVsMemoryBoundContrast(t *testing.T) {
	// myocyte (compute-bound) must produce far fewer memory ops per
	// instruction than streamcluster (memory-bound): the contrast behind the
	// Figure 9 per-benchmark spread.
	count := func(name string) int {
		p, _ := ByName(name)
		g := p.NewGenerator(0, 10000, 3)
		mem := 0
		for i := 0; i < 10000; i++ {
			if g.Next().IsMem {
				mem++
			}
		}
		return mem
	}
	if m, s := count("myocyte"), count("streamcluster"); m*3 > s {
		t.Errorf("myocyte (%d) not ≪ streamcluster (%d)", m, s)
	}
}

func TestDivergenceBursts(t *testing.T) {
	p, _ := ByName("bfs") // DivergenceFrac 0.30
	g := p.NewGenerator(0, 5000, 21)
	mem, zeroGapRuns := 0, 0
	prevMem := false
	for i := 0; i < 20000; i++ { // bursts extend past the budget count
		op := g.Next()
		if op.IsMem {
			mem++
			if prevMem && op.Gap == 0 {
				zeroGapRuns++
			}
			prevMem = true
		} else {
			prevMem = false
		}
		if g.Done() && g.burstAt == g.burstN && i > 5000 {
			break
		}
	}
	if zeroGapRuns == 0 {
		t.Error("no divergent bursts observed")
	}
	if mem == 0 {
		t.Fatal("no memory ops")
	}
}

func TestDivergenceValidation(t *testing.T) {
	p, _ := ByName("bfs")
	p.DivergenceFrac = 1.5
	if p.Validate() == nil {
		t.Error("out-of-range divergence accepted")
	}
}

func TestNonDivergentProfileHasNoBursts(t *testing.T) {
	p, _ := ByName("gaussian") // no divergence configured
	if p.DivergenceFrac != 0 {
		t.Skip("profile gained divergence")
	}
	g := p.NewGenerator(0, 3000, 5)
	prevMem := false
	for i := 0; i < 3000; i++ {
		op := g.Next()
		if op.IsMem && prevMem && op.Gap == 0 {
			// gaussian has Burstiness 0.05 so zero gaps are possible but rare;
			// just ensure the burst queue is never used.
			if g.burstN > 0 {
				t.Fatal("burst queue used without divergence")
			}
		}
		prevMem = op.IsMem
	}
}
