package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"equinox/internal/geom"
)

// schemeNetConfigs returns one network configuration per distinct router
// shape the seven evaluated schemes build (internal/sim's buildNetworks):
// the shared base mesh of SingleBase / VC-Mono / Interposer-CMesh, the
// concentrated CMesh overlay, the separate request and reply meshes, a
// narrow DA2Mesh subnet, MultiPort's widened request and reply meshes, and
// EquiNox's reply mesh with EIR injection ports. types lists the packet
// types the network carries.
func schemeNetConfigs() []struct {
	cfg   Config
	types []PacketType
} {
	// An N-Queen CB placement, and per CB the on-axis routers two hops out
	// as its EIR group — several routers serve two CBs, so port counts vary.
	cbs := []geom.Point{
		geom.Pt(0, 3), geom.Pt(1, 6), geom.Pt(2, 0), geom.Pt(3, 7),
		geom.Pt(4, 4), geom.Pt(5, 1), geom.Pt(6, 5), geom.Pt(7, 2),
	}
	eirs := map[geom.Point][]geom.Point{}
	for _, cb := range cbs {
		for _, d := range []geom.Point{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			if e := geom.Pt(cb.X+d.X, cb.Y+d.Y); e.In(8, 8) {
				eirs[cb] = append(eirs[cb], e)
			}
		}
	}
	mk := func(name string, edit func(*Config)) Config {
		c := DefaultConfig(name, 8, 8)
		c.CBs = cbs
		edit(&c)
		return c
	}
	both := []PacketType{ReadRequest, WriteRequest, ReadReply, WriteReply}
	reqs := []PacketType{ReadRequest, WriteRequest}
	reps := []PacketType{ReadReply, WriteReply}

	cmesh := DefaultConfig("Interposer-CMesh/cmesh", 4, 4)
	cmesh.FlitBytes = 32
	cmesh.Routing, cmesh.VCPolicy = RoutingXY, VCByClass
	cmesh.VCDepthFlits = SizeInFlits(ReadReply, cmesh.FlitBytes, cmesh.LineBytes)
	for id := 0; id < 16; id++ {
		cmesh.CBs = append(cmesh.CBs, geom.FromID(id, 4))
	}
	cmesh.SpokesPerNode, cmesh.EjectPortsPerCB = 4, 4

	return []struct {
		cfg   Config
		types []PacketType
	}{
		{mk("SingleBase", func(c *Config) { c.Routing, c.VCPolicy = RoutingXY, VCByClass }), both},
		{mk("VC-Mono", func(c *Config) { c.Routing, c.VCPolicy = RoutingXY, VCMonopolize }), both},
		{cmesh, both},
		{mk("SeparateBase/request", func(c *Config) {}), reqs},
		{mk("SeparateBase/reply", func(c *Config) {}), reps},
		{mk("DA2Mesh/subnet", func(c *Config) { c.FlitBytes, c.Routing = 2, RoutingXY }), reps},
		{mk("MultiPort/request", func(c *Config) { c.EjectPortsPerCB = 4 }), reqs},
		{mk("MultiPort/reply", func(c *Config) { c.InjectPortsPerCB = 4 }), reps},
		{mk("EquiNox/reply", func(c *Config) { c.EIRGroups = eirs }), reps},
	}
}

// scanMasks recomputes a router's occupancy masks from its buffers and links.
func (r *Router) scanMasks() (needVA, ready, linkBusy uint64) {
	for s := range r.vcs {
		switch vb := &r.vcs[s]; {
		case vb.empty():
		case vb.outPort == noAlloc:
			needVA |= 1 << uint(s)
		default:
			ready |= 1 << uint(s)
		}
	}
	for p := range r.out {
		if l := r.out[p].link; l != nil && l.n > 0 {
			linkBusy |= 1 << uint(p)
		}
	}
	return
}

// checkMasks compares every router's maintained masks and head caches with
// a naive scan.
func checkMasks(n *Network) error {
	for _, r := range n.Routers {
		needVA, ready, linkBusy := r.scanMasks()
		if r.needVA != needVA || r.ready != ready || r.linkBusy != linkBusy {
			return fmt.Errorf("router %v: needVA %#x ready %#x linkBusy %#x, scan says %#x %#x %#x",
				r.pos, r.needVA, r.ready, r.linkBusy, needVA, ready, linkBusy)
		}
		flits := 0
		for s := range r.vcs {
			vb := &r.vcs[s]
			flits += int(vb.n)
			if !vb.empty() && vb.headEntered != vb.at(0).enteredRouter {
				return fmt.Errorf("router %v slot %d: cached head entry cycle %d, head flit says %d",
					r.pos, s, vb.headEntered, vb.at(0).enteredRouter)
			}
		}
		if flits != r.inFlits {
			return fmt.Errorf("router %v: inFlits %d, buffers hold %d", r.pos, r.inFlits, flits)
		}
	}
	return nil
}

// TestMasksMatchScan pins the occupancy-mask invariant the allocators rely
// on: after every Step, on every router, needVA / ready / linkBusy equal what
// a scan of the buffers and links finds. Covered: every router shape the
// seven schemes build × {uniform, hotspot} traffic × 3 seeds, on the serial
// and the sharded stepper, through injection, saturation and drain.
func TestMasksMatchScan(t *testing.T) {
	for _, nc := range schemeNetConfigs() {
		for _, pattern := range []string{"uniform", "hotspot"} {
			for _, shards := range []int{0, 2} {
				name := fmt.Sprintf("%s/%s/shards%d", strings.ReplaceAll(nc.cfg.Name, "/", "-"), pattern, shards)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						cfg := nc.cfg
						cfg.Shards = shards
						n, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := checkMasks(n); err != nil {
							t.Fatalf("fresh network: %v", err)
						}
						rng := rand.New(rand.NewSource(seed))
						nodes := cfg.Nodes()
						for cyc := 0; cyc < 2500 && (cyc < 300 || !n.Quiescent()); cyc++ {
							for k := 0; k < 6 && cyc < 300; k++ {
								typ := nc.types[rng.Intn(len(nc.types))]
								src, dst := rng.Intn(nodes), rng.Intn(nodes)
								if pattern == "hotspot" {
									// Few-to-many: requests converge on the CBs,
									// replies fan out of them.
									cb := cfg.CBs[rng.Intn(len(cfg.CBs))].ID(cfg.Width)
									if ClassOf(typ) == Request {
										dst = cb
									} else {
										src = cb
									}
								}
								n.TryInject(&Packet{Type: typ, Src: src, Dst: dst, Spoke: rng.Intn(4)}, n.Now())
							}
							n.Step()
							if err := checkMasks(n); err != nil {
								t.Fatalf("seed %d cycle %d: %v", seed, cyc, err)
							}
							// Drain slowly at first so ejection queues back up.
							if cyc%3 == 0 || cyc >= 300 {
								for node := 0; node < nodes; node++ {
									for n.PopDelivered(node) != nil {
									}
								}
							}
						}
						if !n.Quiescent() {
							t.Fatalf("seed %d: network did not drain\n%s", seed, n.DebugDump())
						}
					}
				})
			}
		}
	}
}

// TestValidateRouterWidth: a router wider than the 64-bit occupancy masks is
// a configuration error, reported by Validate (and so by New), not a panic
// or a silent slow path.
func TestValidateRouterWidth(t *testing.T) {
	cb := geom.Pt(1, 1)
	ok := DefaultConfig("t", 4, 4)
	ok.CBs = []geom.Point{cb}
	ok.VCsPerPort = 8
	ok.InjectPortsPerCB = 4 // 5+3 input ports x 8 VCs = 64 slots: fits exactly
	if err := ok.Validate(); err != nil {
		t.Fatalf("64-slot router rejected: %v", err)
	}
	if _, err := New(ok); err != nil {
		t.Fatalf("64-slot router: %v", err)
	}

	for name, edit := range map[string]func(*Config){
		"MultiPortInject": func(c *Config) { c.InjectPortsPerCB = 5 },
		"Spokes":          func(c *Config) { c.InjectPortsPerCB, c.SpokesPerNode = 0, 5 },
		"EIRPort": func(c *Config) {
			c.InjectPortsPerCB, c.VCsPerPort = 0, 11 // 5 ports fit (55), an EIR's sixth does not
			c.EIRGroups = map[geom.Point][]geom.Point{cb: {geom.Pt(3, 1)}}
		},
		"EjectPorts": func(c *Config) { c.InjectPortsPerCB, c.VCsPerPort, c.EjectPortsPerCB = 0, 2, 61 },
	} {
		t.Run(name, func(t *testing.T) {
			c := ok
			edit(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), "at most 64") {
				t.Fatalf("Validate() = %v, want the router-width error", err)
			}
			if _, err := New(c); err == nil {
				t.Fatal("New accepted a router wider than the occupancy masks")
			}
		})
	}

	bad := DefaultConfig("t", 4, 4)
	bad.CBs = []geom.Point{geom.Pt(4, 0)}
	if err := bad.Validate(); err == nil {
		t.Error("CB outside the mesh accepted")
	}
}
