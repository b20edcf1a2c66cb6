package sim

import (
	"testing"
	"time"

	"equinox/internal/workloads"
)

// BenchmarkRunToCompletion times the cycle loop alone, one sub-benchmark per
// scheme: Table 1 size (8×8, 8 CBs), kmeans, 200 instructions per PE, seed 1.
// Construction is outside the timer. Besides ns/op it reports simulated
// cycles and flit hops (summed over the scheme's networks) per host second,
// so a kernel change shows as a rate on the scheme it helps. `make
// kernel-bench` runs it; README's "Kernel benchmark" says how to A/B two
// builds with it.
func BenchmarkRunToCompletion(b *testing.B) {
	prof, err := workloads.ByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range AllSchemes() {
		cfg := smallConfig(s, b)
		cfg.InstructionsPerPE = 200
		cfg.Seed = 1
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cycles, hops int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := NewSystem(cfg, prof)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				res, err := sys.RunToCompletion()
				elapsed += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.ExecCycles
				for _, n := range sys.Networks() {
					hops += n.Stats.FlitHops
				}
			}
			b.ReportMetric(float64(cycles)/elapsed.Seconds(), "cycles/s")
			b.ReportMetric(float64(hops)/elapsed.Seconds(), "flit-hops/s")
		})
	}
}
