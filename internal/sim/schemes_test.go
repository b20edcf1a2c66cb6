package sim

import (
	"slices"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/noc"
	"equinox/internal/power"
	"equinox/internal/workloads"
)

// buildFor instantiates the networks of a scheme without running it.
func buildFor(t *testing.T, s SchemeKind) (*System, Config) {
	t.Helper()
	cfg := smallConfig(s, t)
	prof, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cfg
}

// netByName finds one of the system's networks by its configured name.
func netByName(t *testing.T, sys *System, name string) *noc.Network {
	t.Helper()
	for _, n := range sys.Networks() {
		if n.Cfg.Name == name {
			return n
		}
	}
	t.Fatalf("%v has no network %q", sys.cfg.Scheme, name)
	return nil
}

// TestSchemeNetworkOrder pins what exports and goldens silently depend on:
// each scheme's network list order, which entries carry replies, every
// network's clock and pricing, and that collect prices exactly that list.
func TestSchemeNetworkOrder(t *testing.T) {
	subnets := []string{"reply0", "reply1", "reply2", "reply3", "reply4", "reply5", "reply6", "reply7"}
	tileMM := power.Default28nm().TilePitchMM
	cases := []struct {
		scheme SchemeKind
		nets   []string
		reply  []string
		priced map[string]power.NetworkOptions // networks with non-zero options
	}{
		{SingleBase, []string{"base"}, []string{"base"}, nil},
		{VCMono, []string{"base"}, []string{"base"}, nil},
		{InterposerCMesh, []string{"base", "cmesh"}, []string{"base", "cmesh"},
			map[string]power.NetworkOptions{"cmesh": {LinksInInterposer: true, LinkPitchMM: 2 * tileMM}}},
		{SeparateBase, []string{"request", "reply"}, []string{"reply"}, nil},
		{DA2Mesh, append([]string{"request"}, subnets...), subnets, nil},
		{MultiPort, []string{"request", "reply"}, []string{"reply"},
			map[string]power.NetworkOptions{"reply": {ExtraNIBuffers: 3 * 8}}},
		{EquiNox, []string{"request", "reply"}, []string{"reply"},
			map[string]power.NetworkOptions{"reply": {ExtraNIBuffers: 4 * 8, InterposerLinkMM: 2 * tileMM}}},
	}
	names := func(nets []*noc.Network) []string {
		var out []string
		for _, n := range nets {
			out = append(out, n.Cfg.Name)
		}
		return out
	}
	for _, tc := range cases {
		sys, cfg := buildFor(t, tc.scheme)
		if got := names(sys.Networks()); !slices.Equal(got, tc.nets) {
			t.Errorf("%v: Networks() = %v, want %v", tc.scheme, got, tc.nets)
		}
		if got := names(sys.ReplyNetworks()); !slices.Equal(got, tc.reply) {
			t.Errorf("%v: ReplyNetworks() = %v, want %v", tc.scheme, got, tc.reply)
		}
		for i := 0; i < 300; i++ {
			sys.Step()
		}
		var energy power.EnergyBreakdown
		var area float64
		for _, n := range sys.nets {
			ghz := cfg.CoreClockGHz
			if tc.scheme == DA2Mesh && n.Cfg.Name != "request" {
				ghz = cfg.CoreClockGHz * 2.5
			}
			if n.Cfg.ClockGHz != ghz {
				t.Errorf("%v/%s: clock %v GHz, want %v", tc.scheme, n.Cfg.Name, n.Cfg.ClockGHz, ghz)
			}
			if n.power != tc.priced[n.Cfg.Name] {
				t.Errorf("%v/%s: priced with %+v, want %+v", tc.scheme, n.Cfg.Name, n.power, tc.priced[n.Cfg.Name])
			}
			cost := power.Default28nm().Evaluate(n.Network, n.power)
			energy.Add(cost.Energy)
			area += cost.AreaMM2
		}
		if res := sys.collect(); res.AreaMM2 != area || res.Energy != energy {
			t.Errorf("%v: collect() = %v mm² / %v, the list sums to %v mm² / %v",
				tc.scheme, res.AreaMM2, res.Energy, area, energy)
		}
	}
}

func TestSingleBaseStructure(t *testing.T) {
	sys, _ := buildFor(t, SingleBase)
	if len(sys.Networks()) != 1 {
		t.Error("SingleBase must have exactly one network")
	}
	base := netByName(t, sys, "base")
	if base.Cfg.VCPolicy != noc.VCByClass {
		t.Error("SingleBase must split VCs by class")
	}
	if base.Cfg.Routing != noc.RoutingXY {
		t.Error("shared-class network must use XY routing")
	}
}

func TestVCMonoStructure(t *testing.T) {
	sys, _ := buildFor(t, VCMono)
	if netByName(t, sys, "base").Cfg.VCPolicy != noc.VCMonopolize {
		t.Error("VC-Mono must use monopolization")
	}
}

func TestInterposerCMeshStructure(t *testing.T) {
	sys, cfg := buildFor(t, InterposerCMesh)
	cm := netByName(t, sys, "cmesh")
	if cm.Cfg.Width != (cfg.Width+1)/2 || cm.Cfg.Height != (cfg.Height+1)/2 {
		t.Errorf("CMesh size %dx%d", cm.Cfg.Width, cm.Cfg.Height)
	}
	if cm.Cfg.FlitBytes != 32 {
		t.Errorf("CMesh flit width %d, want 32 (256-bit links)", cm.Cfg.FlitBytes)
	}
	if cm.Cfg.SpokesPerNode != 4 || cm.Cfg.EjectPortsPerCB != 4 {
		t.Error("CMesh concentration spokes missing")
	}
	// The 2×-port routers of §6.5: 5 base + 3 spokes in, 5 base + 3 eject out.
	r := cm.RouterAt(geom.Pt(1, 1))
	if r.NumInPorts() != 8 || r.NumOutPorts() != 8 {
		t.Errorf("CMesh router ports %d/%d, want 8/8", r.NumInPorts(), r.NumOutPorts())
	}
}

func TestSeparateBaseStructure(t *testing.T) {
	sys, _ := buildFor(t, SeparateBase)
	for _, n := range []*noc.Network{netByName(t, sys, "request"), netByName(t, sys, "reply")} {
		if n.Cfg.VCPolicy != noc.VCPrivate {
			t.Error("separate networks are single-class")
		}
		if n.Cfg.Routing != noc.RoutingMinimalAdaptive {
			t.Error("separate networks use minimal adaptive routing")
		}
	}
}

func TestDA2MeshStructure(t *testing.T) {
	sys, cfg := buildFor(t, DA2Mesh)
	subnets := sys.ReplyNetworks()
	if len(subnets) != 8 {
		t.Fatalf("%d subnets, want the 8 of [5]", len(subnets))
	}
	for _, sub := range subnets {
		if sub.Cfg.FlitBytes != 2 {
			t.Errorf("subnet flit %dB, want 2 (1/8 width)", sub.Cfg.FlitBytes)
		}
		if sub.Cfg.ClockGHz != cfg.CoreClockGHz*2.5 {
			t.Errorf("subnet clock %f", sub.Cfg.ClockGHz)
		}
		if sub.Cfg.Routing != noc.RoutingXY {
			t.Error("narrow subnets use simple DOR routers")
		}
	}
	// A reply serializes to 65 narrow flits on a subnet.
	if n := noc.SizeInFlits(noc.ReadReply, 2, 128); n != 65 {
		t.Errorf("subnet reply = %d flits", n)
	}
}

func TestMultiPortStructure(t *testing.T) {
	sys, _ := buildFor(t, MultiPort)
	request, reply := netByName(t, sys, "request"), netByName(t, sys, "reply")
	if reply.Cfg.InjectPortsPerCB != 4 {
		t.Error("reply-side injection ports missing")
	}
	if request.Cfg.EjectPortsPerCB != 4 {
		t.Error("request-side ejection ports missing")
	}
	// CB routers gained 3 extra injection input ports on the reply network.
	cb := sys.cbs[0]
	r := reply.RouterAt(cb)
	if r.NumInPorts() != 5+3 {
		t.Errorf("CB reply router in-ports = %d", r.NumInPorts())
	}
	// And 3 extra ejection output ports on the request network.
	rq := request.RouterAt(cb)
	if rq.NumOutPorts() != 5+3 {
		t.Errorf("CB request router out-ports = %d", rq.NumOutPorts())
	}
}

func TestEquiNoxStructure(t *testing.T) {
	sys, cfg := buildFor(t, EquiNox)
	request, reply := netByName(t, sys, "request"), netByName(t, sys, "reply")
	if reply.Cfg.EIRGroups == nil {
		t.Fatal("EIR groups not wired")
	}
	// Every EIR router gained exactly one injection port; CB local routers
	// did not change.
	eirCount := 0
	for cb, eirs := range cfg.EIRGroups {
		for _, e := range eirs {
			eirCount++
			r := reply.RouterAt(e)
			if r.NumInPorts() != 6 {
				t.Errorf("EIR router %v has %d input ports, want 6", e, r.NumInPorts())
			}
		}
		r := reply.RouterAt(cb)
		if r.NumInPorts() != 5 {
			t.Errorf("CB router %v has %d input ports, want 5", cb, r.NumInPorts())
		}
	}
	if eirCount == 0 {
		t.Fatal("design has no EIRs")
	}
	// The request network is untouched (§4.4: request routers unchanged).
	for _, eirs := range cfg.EIRGroups {
		for _, e := range eirs {
			if n := request.RouterAt(e).NumInPorts(); n != 5 {
				t.Errorf("request-network router %v modified: %d ports", e, n)
			}
		}
	}
}

func TestEquiNoxUsesInterposerLinks(t *testing.T) {
	prof, _ := workloads.ByName("kmeans")
	cfg := smallConfig(EquiNox, t)
	sys, err := NewSystem(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	reply := netByName(t, sys, "reply")
	if reply.Stats.InterposerFlits == 0 {
		t.Error("no flits crossed the interposer EIR links")
	}
	// The majority of reply flits should bypass the local router: the EIR
	// links carry them directly to routers two hops out.
	total := reply.Stats.FlitHops
	intp := reply.Stats.InterposerFlits
	if float64(intp) < 0.3*float64(total)/4 {
		t.Errorf("interposer flits %d look too low vs %d hops", intp, total)
	}
}

func TestBankInterleavingCoversAllBanks(t *testing.T) {
	sys, _ := buildFor(t, SeparateBase)
	seen := map[int]bool{}
	for line := uint64(0); line < 64; line++ {
		seen[sys.bankFor(line*128)] = true
	}
	if len(seen) != len(sys.banks) {
		t.Errorf("interleaving hits %d of %d banks", len(seen), len(sys.banks))
	}
}

func TestCMeshNodeMapping(t *testing.T) {
	sys, _ := buildFor(t, InterposerCMesh)
	// All four tiles of a quadrant map to one cmesh node with distinct spokes.
	nodes := map[int]bool{}
	spokes := map[int]bool{}
	for _, p := range []geom.Point{geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(2, 3), geom.Pt(3, 3)} {
		nodes[sys.cmeshNode(p.ID(8))] = true
		spokes[sys.cmeshSpoke(p.ID(8))] = true
	}
	if len(nodes) != 1 {
		t.Error("quadrant tiles map to different cmesh nodes")
	}
	if len(spokes) != 4 {
		t.Error("quadrant tiles share spokes")
	}
}
