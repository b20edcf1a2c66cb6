package sim

import (
	"runtime"
	"testing"

	"equinox/internal/workloads"
)

// newSystemBudget is what one NewSystem of each scheme allocates at Table 1
// size (8×8, 8 CBs, 56 PEs), in objects and KB, measured when construction
// was made cheap (DESIGN.md §5, "Cheap construction"); the test allows 10%
// more.
var newSystemBudget = map[SchemeKind]struct{ mallocs, kb float64 }{
	SingleBase:      {398, 645},
	VCMono:          {398, 645},
	InterposerCMesh: {439, 720},
	SeparateBase:    {432, 848},
	DA2Mesh:         {689, 2267},
	MultiPort:       {434, 866},
	EquiNox:         {472, 860},
}

// TestNewSystemAllocs pins construction's allocations per scheme, so a change
// that brings back per-NI slabs, pointer-bearing rings or eager seeding state
// fails here rather than as a slower setup_s.
func TestNewSystemAllocs(t *testing.T) {
	prof, err := workloads.ByName("myocyte")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		cfg := smallConfig(s, t)
		build := func() {
			if _, err := NewSystem(cfg, prof); err != nil {
				t.Fatal(err)
			}
		}
		mallocs := testing.AllocsPerRun(5, build)
		kb := bytesPerRun(5, build) / 1024
		want := newSystemBudget[s]
		if mallocs > want.mallocs*1.1 || kb > want.kb*1.1 {
			t.Errorf("%v: NewSystem allocates %.0f objects and %.0f KB, budget %.0f and %.0f KB (+10%%)",
				s, mallocs, kb, want.mallocs, want.kb)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one call
// of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkNewSystem times construction alone, one sub-benchmark per scheme
// at Table 1 size — the set-up every short evaluation pays before its first
// cycle.
func BenchmarkNewSystem(b *testing.B) {
	prof, err := workloads.ByName("myocyte")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range AllSchemes() {
		cfg := smallConfig(s, b)
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(cfg, prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
