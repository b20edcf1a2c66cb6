package equinox

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (DESIGN.md's per-experiment index). Each benchmark regenerates
// its experiment's data series and reports the headline values via
// b.ReportMetric, so `go test -bench=.` reproduces the paper end to end.
//
// The full-suite sweeps are expensive; the benchmarks run them once (cached)
// at a CI-friendly scale and then time the per-figure aggregation. The
// `equinox eval` command runs the same figures at full scale.

import (
	"context"
	"sync"
	"testing"

	"equinox/internal/core"
	"equinox/internal/mcts"
	"equinox/internal/placement"
	"equinox/internal/sim"
	"equinox/internal/stats"
	"equinox/internal/workloads"
)

var (
	sweepOnce sync.Once
	sweepEval *Evaluation
	sweepErr  error
)

// sweep runs the shared scheme×benchmark sweep used by the Figure 9/10/11
// benchmarks (all seven schemes, a representative benchmark subset).
func sweep(b *testing.B) *Evaluation {
	b.Helper()
	sweepOnce.Do(func() {
		cfg := DefaultEvalConfig()
		cfg.Benchmarks = []string{"kmeans", "bfs", "hotspot", "scan", "gaussian"}
		cfg.InstructionsPerPE = 500
		sweepEval, sweepErr = RunEvaluationContext(context.Background(), cfg)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	for _, e := range sweepEval.Errors {
		b.Fatal(e)
	}
	return sweepEval
}

// BenchmarkTable1Config regenerates Table 1 (E1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := Table1(DefaultEvalConfig())
		if len(t.Rows) < 8 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFig4Heatmaps regenerates the Figure 4 heat maps and variances
// (E2) and reports the Top-to-N-Queen variance ratio (paper: ~30×).
func BenchmarkFig4Heatmaps(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rs, err := stats.PlacementHeatmaps(8, 8, 8, 2500, 7)
		if err != nil {
			b.Fatal(err)
		}
		v := map[placement.Kind]float64{}
		for _, r := range rs {
			v[r.Kind] = r.Variance
		}
		ratio = v[placement.Top] / v[placement.NQueen]
	}
	b.ReportMetric(ratio, "top/nqueen-variance")
}

// BenchmarkFig5NQueenScoring scores all 92 8×8 N-Queen placements (E3).
func BenchmarkFig5NQueenScoring(b *testing.B) {
	var best int
	for i := 0; i < b.N; i++ {
		sols := placement.NQueenSolutions(8)
		if len(sols) != 92 {
			b.Fatalf("%d solutions", len(sols))
		}
		best = 1 << 30
		for _, sol := range sols {
			if s := placement.Score(placement.FromQueenSolution(sol)); s < best {
				best = s
			}
		}
	}
	b.ReportMetric(float64(best), "best-penalty")
}

// BenchmarkFig7MCTSDesign runs the full §4 design flow with MCTS (E4) and
// reports the crossing count (paper: 0) and link count (paper: 24).
func BenchmarkFig7MCTSDesign(b *testing.B) {
	b.ReportAllocs()
	var rep core.Report
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultDesignConfig()
		cfg.MCTS.IterationsPerLevel = 200
		d, err := core.BuildDesign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep = d.Summarize()
	}
	b.ReportMetric(float64(rep.Crossings), "crossings")
	b.ReportMetric(float64(rep.Links), "links")
	b.ReportMetric(b2f(rep.AllTwoHop), "all-two-hop")
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkFig9aExecutionTime regenerates Figure 9(a) (E5) and reports the
// normalized execution times of the key schemes (paper: EquiNox 0.523,
// SeparateBase ~0.77, Interposer-CMesh 0.621).
func BenchmarkFig9aExecutionTime(b *testing.B) {
	ev := sweep(b)
	var sums map[sim.SchemeKind]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = ev.ExecTimeSummary(sim.SingleBase)
	}
	b.ReportMetric(sums[sim.EquiNox], "equinox")
	b.ReportMetric(sums[sim.SeparateBase], "separatebase")
	b.ReportMetric(sums[sim.InterposerCMesh], "cmesh")
}

// BenchmarkFig9bEnergy regenerates Figure 9(b) (E6).
func BenchmarkFig9bEnergy(b *testing.B) {
	ev := sweep(b)
	var sums map[sim.SchemeKind]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = ev.EnergySummary(sim.SingleBase)
	}
	b.ReportMetric(sums[sim.EquiNox], "equinox")
	b.ReportMetric(sums[sim.SeparateBase], "separatebase")
}

// BenchmarkFig9cEDP regenerates Figure 9(c) (E7).
func BenchmarkFig9cEDP(b *testing.B) {
	ev := sweep(b)
	var sums map[sim.SchemeKind]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = ev.EDPSummary(sim.SingleBase)
	}
	b.ReportMetric(sums[sim.EquiNox], "equinox")
	b.ReportMetric(sums[sim.SeparateBase], "separatebase")
}

// BenchmarkFig10LatencyBreakdown regenerates Figure 10 (E8) and reports
// EquiNox's total normalized latency (paper: −45.8% vs SingleBase).
func BenchmarkFig10LatencyBreakdown(b *testing.B) {
	ev := sweep(b)
	var tbl Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl = ev.Figure10()
	}
	if len(tbl.Rows) != 7 {
		b.Fatal("figure 10 incomplete")
	}
	lat := ev.GeoMeanNormalized(func(r sim.Result) float64 { return r.TotalLatencyNS() }, sim.SingleBase)
	b.ReportMetric(lat[sim.EquiNox], "equinox-latency")
}

// BenchmarkFig11Area regenerates Figure 11 (E9) and reports EquiNox's area
// overhead over SeparateBase (paper: +4.6%).
func BenchmarkFig11Area(b *testing.B) {
	ev := sweep(b)
	var areas map[sim.SchemeKind]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		areas = ev.AreaSummary()
	}
	b.ReportMetric((areas[sim.EquiNox]/areas[sim.SeparateBase]-1)*100, "equinox-overhead-%")
}

// BenchmarkFig12Scalability regenerates the Figure 12 study (E10) at 8×8
// and 12×12 (16×16 runs in examples/scalability) and reports the IPC
// improvement ratios (paper: 1.23× and 1.31×).
func BenchmarkFig12Scalability(b *testing.B) {
	var pts []ScalabilityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = ScalabilityStudy(context.Background(), []int{8, 12}, []string{"kmeans"}, 250, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Improvement, "8x8-speedup")
	b.ReportMetric(pts[1].Improvement, "12x12-speedup")
}

// BenchmarkUbumpArea regenerates the §6.6 µbump comparison (E11) and
// reports the reduction (paper: 81.25%).
func BenchmarkUbumpArea(b *testing.B) {
	design, err := DesignForMesh(8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	var reduction float64
	for i := 0; i < b.N; i++ {
		cm := cmeshBumpPlan(8, 8).Summarize()
		eq := design.Plan.Summarize()
		reduction = (1 - float64(eq.Bumps)/float64(cm.Bumps)) * 100
	}
	b.ReportMetric(reduction, "reduction-%")
}

// BenchmarkReplyTrafficShare measures the reply share of NoC bits (E12,
// paper §2.2: 72.7%).
func BenchmarkReplyTrafficShare(b *testing.B) {
	ev := sweep(b)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		share = ev.ReplyBitShare(sim.SeparateBase)
	}
	b.ReportMetric(share*100, "reply-bit-%")
}

// BenchmarkKnightMovePlacement exercises the >N-CB fallback (E13, §6.8).
func BenchmarkKnightMovePlacement(b *testing.B) {
	var pairs int
	for i := 0; i < b.N; i++ {
		pl := placement.KnightMovePlacement(8, 8, 12)
		pairs = 0
		for j, a := range pl.CBs {
			for _, c := range pl.CBs[j+1:] {
				// a and c share a row, a column or a diagonal.
				if a.X == c.X || a.Y == c.Y || max(a.X-c.X, c.X-a.X) == max(a.Y-c.Y, c.Y-a.Y) {
					pairs++
				}
			}
		}
	}
	b.ReportMetric(float64(pairs), "aligned-pairs")
}

// BenchmarkAblationSearchStrategies compares MCTS, greedy, and random EIR
// search at matched budgets (E14).
func BenchmarkAblationSearchStrategies(b *testing.B) {
	pl, err := placement.New(placement.NQueen, 8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	prob := mcts.NewProblem(8, 8, pl.CBs)
	var mctsCost, randCost float64
	for i := 0; i < b.N; i++ {
		m, err := mcts.Search(prob, mcts.Options{IterationsPerLevel: 200, ExplorationC: 1.0, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		r, err := mcts.RandomSearch(prob, m.Evaluated, 7)
		if err != nil {
			b.Fatal(err)
		}
		mctsCost, randCost = m.Eval.Cost, r.Eval.Cost
	}
	b.ReportMetric(mctsCost, "mcts-cost")
	b.ReportMetric(randCost, "random-cost")
}

// BenchmarkAblationEIRCount sweeps the per-CB EIR budget (E14, §3.2.1).
func BenchmarkAblationEIRCount(b *testing.B) {
	var costs [4]float64
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 4; k++ {
			cfg := core.DefaultDesignConfig()
			cfg.MaxEIRsPerCB = k
			cfg.Search = core.SearchGreedyTwoHop
			d, err := core.BuildDesign(cfg)
			if err != nil {
				b.Fatal(err)
			}
			costs[k-1] = d.Eval.Cost
		}
	}
	b.ReportMetric(costs[0], "cost-1eir")
	b.ReportMetric(costs[3], "cost-4eir")
}

// BenchmarkAblationPlacement isolates the §4.2 claim at system level:
// EquiNox on the N-Queen placement versus the same EIR construction on the
// Diamond placement.
func BenchmarkAblationPlacement(b *testing.B) {
	prof := "kmeans"
	run := func(kind placement.Kind) float64 {
		pl, err := placement.New(kind, 8, 8, 8)
		if err != nil {
			b.Fatal(err)
		}
		prob := mcts.NewProblem(8, 8, pl.CBs)
		res, err := mcts.GreedyTwoHop(prob)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig(sim.EquiNox)
		cfg.InstructionsPerPE = 300
		cfg.CBOverride = pl.CBs
		cfg.EIRGroups = prob.Groups(res.Assignment)
		p, err := workloads.ByName(prof)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.Run(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		return r.ExecNS
	}
	var nq, dia float64
	for i := 0; i < b.N; i++ {
		nq = run(placement.NQueen)
		dia = run(placement.Diamond)
	}
	b.ReportMetric(nq, "nqueen-ns")
	b.ReportMetric(dia, "diamond-ns")
}
