package noc_test

import (
	"math/rand"
	"testing"

	"equinox/internal/geom"
	"equinox/internal/noc"
	"equinox/internal/traffic"
)

// draws hands out a fuzz input as small integers; an exhausted input reads
// as zeros.
type draws []byte

// intn returns the next draw in [0, k).
func (d *draws) intn(k int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % k
	*d = (*d)[1:]
	return v
}

// scenario is one network and the traffic driven through it.
type scenario struct {
	cfg      noc.Config
	pattern  traffic.Pattern
	mixTypes bool    // draw each packet's type, not the pattern's
	load     float64 // packets per source per injection cycle
	cycles   int     // injection cycles; the run then drains
	popEvery int     // delivered packets are popped every popEvery cycles while injecting
	seed     int64
}

// decodeScenario builds a valid scenario from a fuzz input: a 2×2 to 8×8
// mesh with 1–4 VCs per port, 1–9 flit deep, 8- to 32-byte flits; a routing
// and VC policy pair that Config.Validate accepts; the router shapes of
// internal/sim's scheme rows — plain, MultiPort injection and ejection
// ports, EquiNox EIR groups (random on-axis EIRs, at most one per direction
// of a CB), concentration spokes — over randomly placed CBs; and an
// internal/traffic pattern with its load and seed.
func decodeScenario(data []byte) scenario {
	d := draws(data)
	w, h := 2+d.intn(7), 2+d.intn(7)
	cfg := noc.DefaultConfig("fuzz", w, h)
	cfg.VCsPerPort, cfg.VCDepthFlits = 1+d.intn(4), 1+d.intn(9)
	cfg.FlitBytes = []int{16, 32, 8}[d.intn(3)]
	switch d.intn(4) {
	case 0:
		cfg.Routing = noc.RoutingXY
	case 1: // DefaultConfig's west-first adaptive over private VCs
	case 2:
		cfg.Routing, cfg.VCPolicy = noc.RoutingXY, noc.VCByClass
	case 3:
		cfg.Routing, cfg.VCPolicy = noc.RoutingXY, noc.VCMonopolize
	}
	if cfg.VCPolicy != noc.VCPrivate {
		cfg.VCsPerPort = max(cfg.VCsPerPort, int(noc.NumClasses))
	}
	nodes := w * h
	sc := scenario{
		mixTypes: d.intn(2) == 1,
		load:     float64(1+d.intn(8)) / 16,
		cycles:   50 + 50*d.intn(4),
		popEvery: 1 + d.intn(3),
	}
	shape, k := d.intn(4), 1+d.intn(min(nodes-1, 8))
	sc.seed = int64(d.intn(256))<<8 | int64(d.intn(256))
	rng := rand.New(rand.NewSource(sc.seed))
	for _, id := range rng.Perm(nodes)[:k] {
		cfg.CBs = append(cfg.CBs, geom.FromID(id, w))
	}
	switch shape {
	case 1: // MultiPort
		cfg.InjectPortsPerCB, cfg.EjectPortsPerCB = 2+rng.Intn(3), 1+rng.Intn(4)
	case 2: // EquiNox
		cfg.EIRGroups = map[geom.Point][]geom.Point{}
		for _, cb := range cfg.CBs {
			eirs := []geom.Point{}
			for _, dir := range []geom.Direction{geom.East, geom.West, geom.South, geom.North} {
				step, dist := dir.Delta(), 1+rng.Intn(3)
				if e := geom.Pt(cb.X+dist*step.X, cb.Y+dist*step.Y); e.In(w, h) && rng.Intn(4) > 0 {
					eirs = append(eirs, e)
				}
			}
			cfg.EIRGroups[cb] = eirs
		}
	case 3: // concentration spokes
		cfg.SpokesPerNode, cfg.EjectPortsPerCB = 2+rng.Intn(3), 1+rng.Intn(4)
	}
	sc.cfg = cfg

	typ := noc.PacketType(rng.Intn(4))
	switch d.intn(5) {
	case 0:
		sc.pattern = traffic.Uniform{W: w, H: h, Typ: typ}
	case 1:
		sc.pattern = traffic.Transpose{W: w, H: h, Typ: typ}
	case 2:
		sc.pattern = traffic.Hotspot{W: w, H: h, Hot: rng.Intn(nodes), HotFrac: 0.5, Typ: typ}
	case 3:
		sc.pattern = traffic.FewToMany{W: w, H: h, CBs: cfg.CBs, Typ: typ}
	case 4:
		sc.pattern = traffic.ManyToFew{W: w, H: h, CBs: cfg.CBs, Typ: typ}
	}
	return sc
}

// drive runs the scenario's traffic through n, runs every invariant check
// (noc.CheckStep) after each Step, and fails the test if the network stops
// making progress before it drains: no flit crosses a router for
// stallCycles while packets are in flight. Delivered packets are popped at
// least every third cycle, so only a deadlock can stall it that long.
func (sc scenario) drive(t *testing.T, n *noc.Network) {
	const stallCycles = 1000
	rng := rand.New(rand.NewSource(sc.seed))
	sources := len(sc.pattern.Sources())
	var injected, id, hops int64
	moved := 0 // the last cycle a flit crossed a router, or the network was empty
	for cyc := 0; cyc < sc.cycles || !n.Quiescent(); cyc++ {
		if h := n.Stats.FlitHops; h != hops || n.Quiescent() {
			hops, moved = h, cyc
		} else if cyc-moved == stallCycles {
			t.Fatalf("%s: no flit moved for %d cycles, %d packets in flight\n%s", n, stallCycles, n.InFlight(), noc.DebugDump(n))
		}
		for s := 0; s < sources && cyc < sc.cycles; s++ {
			if rng.Float64() >= sc.load {
				continue
			}
			src, dst, typ := sc.pattern.Pair(rng)
			if sc.mixTypes {
				typ = noc.PacketType(rng.Intn(4))
			}
			id++
			if p := (&noc.Packet{ID: id, Type: typ, Src: src, Dst: dst, Spoke: rng.Intn(4)}); n.TryInject(p, n.Now()) {
				injected += int64(p.Flits)
			}
		}
		n.Step()
		if err := noc.CheckStep(n, injected); err != nil {
			t.Fatalf("%s, %s traffic, cycle %d: %v", n, sc.pattern.Name(), cyc, err)
		}
		if cyc >= sc.cycles || cyc%sc.popEvery == 0 {
			for node := n.NextDelivered(0); node >= 0; node = n.NextDelivered(node + 1) {
				for n.PopDelivered(node) != nil {
				}
			}
		}
	}
}

// FuzzStepInvariants builds a random valid network (decodeScenario), drives
// random traffic through it, runs every invariant check after each Step —
// masks and router sets, packet table, conservation, VC ownership — and
// requires the network to drain, deadlock-free, with every VC released.
func FuzzStepInvariants(f *testing.F) {
	// Byte order: width, height, VCs, depth, flit width, routing/VC policy,
	// type mix, load, injection cycles, pop cadence, router shape, CBs, seed
	// (two bytes), pattern.
	for _, seed := range []string{
		"", // 2x2, one 1-deep VC, XY, uniform
		"\x06\x06\x01\x08\x00\x00\x00\x07\x03\x01\x01\x03\x01\x02\x02", // 8x8 XY, MultiPort, hotspot
		"\x06\x06\x01\x08\x00\x01\x01\x07\x03\x00\x02\x07\x00\x09\x03", // 8x8 adaptive, EquiNox, few-to-many
		"\x02\x03\x00\x00\x01\x02\x01\x03\x00\x02\x03\x04\x00\x05\x01", // 4x5 1-deep ByClass, spokes, transpose
		"\x03\x02\x01\x04\x02\x03\x01\x05\x01\x01\x00\x03\x01\x11\x04", // 5x4 VC-Mono, 8-byte flits, many-to-few
		"\x00\x00\x03\x00\x01\x03\x01\x07\x03\x00\x02\x02\x00\x21\x02", // 2x2 1-deep VC-Mono, EquiNox, hotspot
		"\x05\x05\x03\x00\x02\x01\x01\x05\x02\x02\x01\x05\x00\x07\x00", // 7x7 1-deep adaptive, 8-byte flits, MultiPort
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		n, err := noc.New(sc.cfg)
		if err != nil {
			t.Fatalf("decodeScenario built an invalid configuration: %v", err)
		}
		sc.drive(t, n)
	})
}
