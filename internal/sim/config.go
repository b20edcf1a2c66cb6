// Package sim is the full-system simulator of the paper's evaluation
// environment (§5): processing elements with L1s, shared cache banks with
// HBM controllers, and the request/reply NoCs of the seven compared schemes,
// all advanced together in the core clock domain (with DA2Mesh's reply
// subnets in their own 2.5× domain).
package sim

import (
	"fmt"

	"equinox/internal/geom"
	"equinox/internal/gpu"
	"equinox/internal/noc"
	"equinox/internal/placement"
)

// SchemeKind enumerates the seven compared schemes of §5.
type SchemeKind int

// The schemes, in the paper's order. (1)–(3) are single-network type,
// (4)–(7) separate-network type.
const (
	SingleBase SchemeKind = iota
	VCMono
	InterposerCMesh
	SeparateBase
	DA2Mesh
	MultiPort
	EquiNox
	NumSchemes
)

var schemeNames = [...]string{
	"SingleBase", "VC-Mono", "Interposer-CMesh",
	"SeparateBase", "DA2Mesh", "MultiPort", "EquiNox",
}

// String implements fmt.Stringer.
func (s SchemeKind) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("SchemeKind(%d)", int(s))
	}
	return schemeNames[s]
}

// AllSchemes lists the seven schemes in paper order.
func AllSchemes() []SchemeKind {
	return []SchemeKind{SingleBase, VCMono, InterposerCMesh, SeparateBase, DA2Mesh, MultiPort, EquiNox}
}

// IsSeparate reports whether the scheme uses separate physical request and
// reply networks.
func (s SchemeKind) IsSeparate() bool { return s >= SeparateBase }

// Config configures one full-system simulation.
type Config struct {
	Scheme SchemeKind

	Width, Height int
	NumCBs        int

	// EIRGroups is required for EquiNox: CB tile → EIR tiles (normally from
	// the MCTS design flow; see internal/core).
	EIRGroups map[geom.Point][]geom.Point
	// CBOverride pins the CB placement (used with EIRGroups); when nil the
	// scheme's default placement applies (Diamond for schemes (1)–(6),
	// N-Queen for EquiNox).
	CBOverride []geom.Point

	PE gpu.PEConfig
	CB gpu.CBConfig

	// InstructionsPerPE scales the workload (profiles' budgets are replaced
	// by this when non-zero).
	InstructionsPerPE int

	Seed      int64
	MaxCycles int64

	// CoreClockGHz is the PE/base-network clock (Table 1: 1.126 GHz).
	CoreClockGHz float64
	// DA2MeshClockRatio is the subnet clock multiplier (2.5 in [5]).
	DA2MeshClockRatio float64
	// DA2MeshSubnets is the reply subnet count (8 in [5]).
	DA2MeshSubnets int
	// MultiPortPorts is the injection/ejection port count per CB router.
	MultiPortPorts int
	// CMeshHopThreshold routes packets over the interposer CMesh when the
	// source-destination Manhattan distance exceeds it.
	CMeshHopThreshold int

	// VCsPerPort overrides Table 1's two virtual channels per port on every
	// network when non-zero (ablation knob).
	VCsPerPort int

	// Parallel is validated (non-negative) and otherwise ignored: one run is
	// single-threaded, and parallelism comes from running many runs at once.
	//
	// Deprecated: the field remains only because the frozen bench/ladder_sim.go
	// assigns it; it goes when a benchmark PR retires par.speedup_p2.
	Parallel int
}

// DefaultConfig returns the Table 1 system for a scheme at 8×8 with 8 CBs.
func DefaultConfig(s SchemeKind) Config {
	return Config{
		Scheme:            s,
		Width:             8,
		Height:            8,
		NumCBs:            8,
		PE:                gpu.DefaultPEConfig(),
		CB:                gpu.DefaultCBConfig(),
		InstructionsPerPE: 1200,
		Seed:              1,
		MaxCycles:         3_000_000,
		CoreClockGHz:      1.126,
		DA2MeshClockRatio: 2.5,
		DA2MeshSubnets:    8,
		MultiPortPorts:    4,
		CMeshHopThreshold: 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scheme < 0 || c.Scheme >= NumSchemes {
		return fmt.Errorf("sim: unknown scheme %d", int(c.Scheme))
	}
	if c.Width < 2 || c.Height < 2 {
		return fmt.Errorf("sim: mesh too small %dx%d", c.Width, c.Height)
	}
	if c.NumCBs < 1 || c.NumCBs >= c.Width*c.Height {
		return fmt.Errorf("sim: bad CB count %d", c.NumCBs)
	}
	if c.Scheme == EquiNox && c.EIRGroups == nil {
		return fmt.Errorf("sim: EquiNox requires EIRGroups (run the design flow)")
	}
	if c.InstructionsPerPE < 1 {
		return fmt.Errorf("sim: InstructionsPerPE must be ≥1")
	}
	if c.MaxCycles < 1 || c.CoreClockGHz <= 0 {
		return fmt.Errorf("sim: bad cycle/clock limits")
	}
	if c.Scheme == DA2Mesh && (c.DA2MeshSubnets < 1 || c.DA2MeshClockRatio <= 0) {
		return fmt.Errorf("sim: bad DA2Mesh parameters")
	}
	if c.Parallel < 0 {
		return fmt.Errorf("sim: negative Parallel %d", c.Parallel)
	}
	return nil
}

// PlacementKind returns the CB placement the scheme uses by default:
// Diamond for schemes (1)–(6) per §5, N-Queen for EquiNox.
func (c Config) PlacementKind() placement.Kind {
	if c.Scheme == EquiNox {
		return placement.NQueen
	}
	return placement.Diamond
}

// CBTiles resolves the CB placement.
func (c Config) CBTiles() ([]geom.Point, error) {
	if c.CBOverride != nil {
		return c.CBOverride, nil
	}
	pl, err := placement.New(c.PlacementKind(), c.Width, c.Height, c.NumCBs)
	if err != nil {
		return nil, err
	}
	return pl.CBs, nil
}

// networkSet is the collection of physical networks a scheme instantiates.
type networkSet struct {
	// base carries requests (always) and replies (single-network schemes
	// and as the short-distance fallback of Interposer-CMesh).
	base *noc.Network
	// reply carries replies in separate-network schemes (nil otherwise).
	reply *noc.Network
	// subnets are DA2Mesh's narrow reply subnets (nil otherwise).
	subnets   []*noc.Network
	subnetAcc float64
	// cmesh is Interposer-CMesh's concentrated overlay (nil otherwise).
	cmesh *noc.Network
}

// buildNetworks instantiates the scheme's networks.
func (c Config) buildNetworks(cbs []geom.Point) (*networkSet, error) {
	ns := &networkSet{}
	mk := func(name string) noc.Config {
		nc := noc.DefaultConfig(name, c.Width, c.Height)
		nc.ClockGHz = c.CoreClockGHz
		nc.CBs = cbs
		if c.VCsPerPort > 0 {
			nc.VCsPerPort = c.VCsPerPort
		}
		return nc
	}
	switch c.Scheme {
	case SingleBase, VCMono, InterposerCMesh:
		nc := mk("base")
		nc.Routing = noc.RoutingXY
		nc.VCPolicy = noc.VCByClass
		if c.Scheme == VCMono {
			nc.VCPolicy = noc.VCMonopolize
		}
		var err error
		ns.base, err = noc.New(nc)
		if err != nil {
			return nil, err
		}
		if c.Scheme == InterposerCMesh {
			cw, ch := (c.Width+1)/2, (c.Height+1)/2
			cc := noc.DefaultConfig("cmesh", cw, ch)
			cc.ClockGHz = c.CoreClockGHz
			cc.FlitBytes = 32 // 256-bit interposer links
			cc.Routing = noc.RoutingXY
			cc.VCPolicy = noc.VCByClass
			cc.VCDepthFlits = noc.SizeInFlits(noc.ReadReply, cc.FlitBytes, cc.LineBytes)
			// Each CMesh router concentrates four tiles: every tile keeps a
			// dedicated injection spoke (independent NI + input port) and the
			// router has four ejection spokes, making them the "2× more
			// ports than a basic router" routers of §6.5.
			var all []geom.Point
			for y := 0; y < ch; y++ {
				for x := 0; x < cw; x++ {
					all = append(all, geom.Pt(x, y))
				}
			}
			cc.CBs = all
			cc.SpokesPerNode = 4
			cc.EjectPortsPerCB = 4
			ns.cmesh, err = noc.New(cc)
			if err != nil {
				return nil, err
			}
		}
	case SeparateBase, DA2Mesh, MultiPort, EquiNox:
		rq := mk("request")
		if c.Scheme == MultiPort {
			rq.EjectPortsPerCB = c.MultiPortPorts
		}
		var err error
		ns.base, err = noc.New(rq)
		if err != nil {
			return nil, err
		}
		switch c.Scheme {
		case DA2Mesh:
			for i := 0; i < c.DA2MeshSubnets; i++ {
				sn := mk(fmt.Sprintf("reply%d", i))
				sn.FlitBytes = 16 / c.DA2MeshSubnets // 1/8 flit size
				if sn.FlitBytes < 1 {
					sn.FlitBytes = 1
				}
				// Narrow and *simple* subnet routers ([5]): the per-subnet
				// buffering is an eighth of the baseline reply router's (so
				// the eight subnets together match it), and routing is
				// dimension-ordered — a 65-flit packet worms across shallow
				// buffers; whole-packet adaptive allocation would degenerate
				// to store-and-forward.
				sn.VCDepthFlits = mk("x").VCDepthFlits
				sn.Routing = noc.RoutingXY
				sn.ClockGHz = c.CoreClockGHz * c.DA2MeshClockRatio
				sub, err := noc.New(sn)
				if err != nil {
					return nil, err
				}
				ns.subnets = append(ns.subnets, sub)
			}
		case MultiPort:
			rp := mk("reply")
			rp.InjectPortsPerCB = c.MultiPortPorts
			ns.reply, err = noc.New(rp)
			if err != nil {
				return nil, err
			}
		case EquiNox:
			rp := mk("reply")
			rp.EIRGroups = c.EIRGroups
			ns.reply, err = noc.New(rp)
			if err != nil {
				return nil, err
			}
		default:
			rp := mk("reply")
			ns.reply, err = noc.New(rp)
			if err != nil {
				return nil, err
			}
		}
	}
	return ns, nil
}
