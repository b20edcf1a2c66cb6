package core

import "testing"

// BenchmarkBuildDesign is one design-search operation: the full §4 flow
// (N-Queen placement, MCTS at the default 400 iterations per level,
// refinement, interposer plan) for the paper's 8×8 mesh with 8 CBs, seed 1.
func BenchmarkBuildDesign(b *testing.B) {
	cfg := DefaultDesignConfig()
	cfg.MCTS.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDesign(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "designs/s")
	}
}
