package sim

import (
	"context"
	"errors"
	"testing"

	"equinox/internal/core"

	"equinox/internal/geom"
	"equinox/internal/mcts"
	"equinox/internal/placement"
	"equinox/internal/workloads"
)

// designGroups runs the quick design flow to get EIR groups for EquiNox.
func designGroups(t testing.TB, w, h, ncb int) ([]geom.Point, map[geom.Point][]geom.Point) {
	t.Helper()
	pl, err := placement.New(placement.NQueen, w, h, ncb)
	if err != nil {
		t.Fatal(err)
	}
	p := mcts.NewProblem(w, h, pl.CBs)
	res, err := mcts.GreedyTwoHop(p)
	if err != nil {
		t.Fatal(err)
	}
	return pl.CBs, p.Groups(res.Assignment)
}

func smallConfig(s SchemeKind, t testing.TB) Config {
	cfg := DefaultConfig(s)
	cfg.InstructionsPerPE = 220
	cfg.MaxCycles = 2_000_000
	if s == EquiNox {
		cbs, groups := designGroups(t, 8, 8, 8)
		cfg.CBOverride = cbs
		cfg.EIRGroups = groups
	}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(SingleBase)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := cfg
	bad.NumCBs = 0
	if bad.Validate() == nil {
		t.Error("zero CBs accepted")
	}
	eq := DefaultConfig(EquiNox)
	if eq.Validate() == nil {
		t.Error("EquiNox without EIR groups accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	if len(AllSchemes()) != 7 {
		t.Fatal("expected 7 schemes")
	}
	if SingleBase.String() != "SingleBase" || EquiNox.String() != "EquiNox" {
		t.Error("scheme names wrong")
	}
	if SingleBase.IsSeparate() || !EquiNox.IsSeparate() || !SeparateBase.IsSeparate() {
		t.Error("IsSeparate wrong")
	}
	if InterposerCMesh.IsSeparate() {
		t.Error("Interposer-CMesh is single-network type")
	}
}

func TestAllSchemesRunToCompletion(t *testing.T) {
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(smallConfig(s, t), prof)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if res.TimedOut {
				t.Fatalf("%v timed out", s)
			}
			if res.ExecCycles <= 0 || res.IPC <= 0 {
				t.Errorf("%v: empty result %+v", s, res)
			}
			if res.Energy.TotalPJ() <= 0 || res.AreaMM2 <= 0 {
				t.Errorf("%v: energy/area missing", s)
			}
			if res.Instructions == 0 {
				t.Errorf("%v: no instructions retired", s)
			}
		})
	}
}

func TestDeterministicResults(t *testing.T) {
	prof, _ := workloads.ByName("bfs")
	a, err := Run(smallConfig(SeparateBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(SeparateBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.Energy.TotalPJ() != b.Energy.TotalPJ() {
		t.Errorf("nondeterministic: %d/%f vs %d/%f",
			a.ExecCycles, a.Energy.TotalPJ(), b.ExecCycles, b.Energy.TotalPJ())
	}
}

// TestRunToCompletionCancellation: the cycle loop honors ctx.
func TestRunToCompletionCancellation(t *testing.T) {
	prof, _ := workloads.ByName("kmeans")
	sys, err := NewSystem(DefaultConfig(SingleBase), prof)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunToCompletionContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sys.Finished() {
		t.Error("a cancelled run finished")
	}
}

func TestReplyTrafficDominates(t *testing.T) {
	// §2.2: replies are ~72.7% of NoC bits on read-dominant workloads.
	prof, _ := workloads.ByName("kmeans")
	res, err := Run(smallConfig(SeparateBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplyBitShare < 0.60 || res.ReplyBitShare > 0.90 {
		t.Errorf("reply bit share %f outside the expected band around 0.727", res.ReplyBitShare)
	}
}

func TestEquiNoxBeatsSeparateBase(t *testing.T) {
	// The headline result at benchmark scale: EquiNox reduces execution time
	// vs SeparateBase on a memory-bound benchmark.
	prof, _ := workloads.ByName("streamcluster")
	base, err := Run(smallConfig(SeparateBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	equi, err := Run(smallConfig(EquiNox, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	if equi.ExecCycles >= base.ExecCycles {
		t.Errorf("EquiNox %d cycles not below SeparateBase %d", equi.ExecCycles, base.ExecCycles)
	}
}

func TestSeparateBeatsSingleOnMemoryBound(t *testing.T) {
	prof, _ := workloads.ByName("kmeans")
	single, err := Run(smallConfig(SingleBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := Run(smallConfig(SeparateBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	if sep.ExecCycles >= single.ExecCycles {
		t.Errorf("SeparateBase %d not below SingleBase %d", sep.ExecCycles, single.ExecCycles)
	}
}

func TestRequestLatencyBackpressure(t *testing.T) {
	// §6.4: on congested baselines the request latency exceeds reply latency
	// because reply-injection congestion backpressures the request network.
	prof, _ := workloads.ByName("streamcluster")
	res, err := Run(smallConfig(SingleBase, t), prof)
	if err != nil {
		t.Fatal(err)
	}
	req := res.ReqQueueNS + res.ReqNetNS
	rep := res.RepQueueNS + res.RepNetNS
	if req <= rep*0.5 {
		t.Errorf("request latency %f unexpectedly far below reply latency %f", req, rep)
	}
}

func TestAreaOrdering(t *testing.T) {
	// Figure 11's structure: single-network schemes below separate-network
	// schemes; EquiNox slightly above SeparateBase; Interposer-CMesh above
	// plain single.
	prof, _ := workloads.ByName("gaussian")
	area := map[SchemeKind]float64{}
	for _, s := range []SchemeKind{SingleBase, InterposerCMesh, SeparateBase, MultiPort, EquiNox} {
		res, err := Run(smallConfig(s, t), prof)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		area[s] = res.AreaMM2
	}
	if area[SingleBase] >= area[SeparateBase] {
		t.Errorf("single %f not below separate %f", area[SingleBase], area[SeparateBase])
	}
	if area[EquiNox] <= area[SeparateBase] {
		t.Errorf("EquiNox %f not above SeparateBase %f", area[EquiNox], area[SeparateBase])
	}
	if area[EquiNox] > area[SeparateBase]*1.15 {
		t.Errorf("EquiNox overhead %f/%f far above the paper's ~4.6%%", area[EquiNox], area[SeparateBase])
	}
	if area[InterposerCMesh] <= area[SingleBase] {
		t.Errorf("CMesh %f not above SingleBase %f", area[InterposerCMesh], area[SingleBase])
	}
	if area[MultiPort] <= area[SeparateBase] {
		t.Errorf("MultiPort %f not above SeparateBase %f", area[MultiPort], area[SeparateBase])
	}
}

func TestCMeshCarriesLongDistanceTraffic(t *testing.T) {
	prof, _ := workloads.ByName("bfs")
	cfg := smallConfig(InterposerCMesh, t)
	s, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if netByName(t, s, "cmesh").Stats.TotalDelivered() == 0 {
		t.Error("CMesh carried no packets")
	}
	if netByName(t, s, "base").Stats.TotalDelivered() == 0 {
		t.Error("base network carried no packets")
	}
}

func TestDA2MeshUsesAllSubnets(t *testing.T) {
	prof, _ := workloads.ByName("bfs")
	cfg := smallConfig(DA2Mesh, t)
	s, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	subnets := s.ReplyNetworks()
	for i, sub := range subnets {
		if sub.Stats.TotalDelivered() == 0 {
			t.Errorf("subnet %d carried nothing", i)
		}
		if sub.Cfg.FlitBytes != 2 {
			t.Errorf("subnet flit width %d, want 2 (1/8 of 16)", sub.Cfg.FlitBytes)
		}
	}
	// Subnets run 2.5× faster: their cycle counters should exceed the core's.
	if subnets[0].Now() <= s.now {
		t.Errorf("subnet clock %d not ahead of core clock %d", subnets[0].Now(), s.now)
	}
}

func TestScalesTo12x12(t *testing.T) {
	prof, _ := workloads.ByName("hotspot")
	cfg := DefaultConfig(SeparateBase)
	cfg.Width, cfg.Height = 12, 12
	cfg.InstructionsPerPE = 120
	res, err := Run(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.ExecCycles <= 0 {
		t.Errorf("12x12 run failed: %+v", res)
	}
}

// TestKnightMoveEquiNoxEndToEnd exercises the §6.8 path at system level:
// with more CBs (12) than the design flow's N-Queen board can host, the
// knight-move placement kicks in and the resulting EquiNox design still
// simulates correctly and beats its SeparateBase counterpart.
func TestKnightMoveEquiNoxEndToEnd(t *testing.T) {
	prof, _ := workloads.ByName("kmeans")
	dcfg := core.DefaultDesignConfig()
	dcfg.NumCBs = 12
	dcfg.Search = core.SearchGreedyTwoHop
	d, err := core.BuildDesign(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.CBs) != 12 {
		t.Fatalf("%d CBs", len(d.CBs))
	}
	mk := func(s SchemeKind) Config {
		cfg := DefaultConfig(s)
		cfg.NumCBs = 12
		cfg.InstructionsPerPE = 200
		if s == EquiNox {
			cfg.CBOverride = d.CBs
			cfg.EIRGroups = d.Groups
		}
		return cfg
	}
	base, err := Run(mk(SeparateBase), prof)
	if err != nil {
		t.Fatal(err)
	}
	equi, err := Run(mk(EquiNox), prof)
	if err != nil {
		t.Fatal(err)
	}
	if equi.ExecCycles >= base.ExecCycles {
		t.Errorf("12-CB EquiNox %d not below SeparateBase %d", equi.ExecCycles, base.ExecCycles)
	}
}
