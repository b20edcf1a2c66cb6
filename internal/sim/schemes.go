package sim

import (
	"fmt"
	"strings"

	"equinox/internal/geom"
	"equinox/internal/noc"
	"equinox/internal/placement"
	"equinox/internal/power"
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

// role says which packets the system injects into a network: the scheme's
// one request carrier, a reply carrier (a bank round-robins over several), or
// an overlay — tried first for long-distance packets of both classes, with
// the carriers as the fallback when its spoke is busy.
type role uint8

const (
	requests role = 1 << iota
	replies
	overlay
)

// netRow declares one physical network of a scheme: what it carries, its
// clock domain, its changes against Table 1's network (noc.DefaultConfig at
// the core clock over the scheme's CB tiles; zero values keep Table 1's),
// and how it is priced.
type netRow struct {
	name string
	role role
	// copies > 0 instantiates that many identical networks, named name0,
	// name1, …
	copies int
	// fast puts the network in the fast clock domain: fastClockRatio steps
	// per core cycle, all fast networks sharing one accumulator.
	fast bool

	vcPolicy    noc.VCPolicy // how two classes share the VCs; single-class when zero
	xy          bool         // dimension-ordered, not minimal adaptive, routing
	flitBytes   int
	ejectPorts  int  // per CB router (every router of a concentrated network)
	injectPorts int  // per CB router
	eirs        bool // the EquiNox CB NI and EIR input ports, from Config.EIRGroups
	// concentrated halves the mesh in each dimension: a router serves four
	// tiles, each through its own injection spoke (independent NI + input
	// port) — with four ejection ports, the "2× more ports than a basic
	// router" routers of §6.5 — and a VC holds one packet at the network's
	// own flit width.
	concentrated bool

	// power prices the network. Here its link lengths are in tile pitches
	// and its extra NI buffers per CB; buildNetworks scales both.
	power power.NetworkOptions
}

// schemeRow is one scheme of the comparison: its display name, its default
// CB placement, and its networks in list order.
//
// List order is request carrier, reply carriers, overlay, and four things
// depend on it: it is the order drainEjections visits networks in (the
// per-cycle one-request-per-bank arbitration), the float summation order of
// collect, the series/recorder order of every probe, telemetry and flight
// export, and the order Networks returns.
type schemeRow struct {
	name      string
	placement placement.Kind
	nets      []netRow
}

const (
	// fastClockRatio is the DA2Mesh subnet clock multiplier (2.5 in [5]).
	fastClockRatio = 2.5
	// da2meshSubnets is the reply subnet count (8 in [5]).
	da2meshSubnets = 8
	// multiPortPorts is the injection/ejection port count per CB router of
	// the MultiPort scheme ([2]).
	multiPortPorts = 4
	// cmeshHopThreshold sends a packet over the interposer CMesh when its
	// source-destination Manhattan distance exceeds it (§5).
	cmeshHopThreshold = 2
)

// schemes is the §5 comparison, one row per scheme.
var schemes = [NumSchemes]schemeRow{
	SingleBase: {"SingleBase", placement.Diamond, []netRow{
		{name: "base", role: requests | replies, xy: true, vcPolicy: noc.VCByClass},
	}},
	VCMono: {"VC-Mono", placement.Diamond, []netRow{
		{name: "base", role: requests | replies, xy: true, vcPolicy: noc.VCMonopolize},
	}},
	// The overlay runs over 256-bit interposer links two tile pitches long.
	InterposerCMesh: {"Interposer-CMesh", placement.Diamond, []netRow{
		{name: "base", role: requests | replies, xy: true, vcPolicy: noc.VCByClass},
		{name: "cmesh", role: overlay, xy: true, vcPolicy: noc.VCByClass, concentrated: true, flitBytes: 32, ejectPorts: 4,
			power: power.NetworkOptions{LinksInInterposer: true, LinkPitchMM: 2}},
	}},
	SeparateBase: {"SeparateBase", placement.Diamond, []netRow{
		{name: "request", role: requests},
		{name: "reply", role: replies},
	}},
	// Narrow and *simple* subnet routers ([5]): 1/8 of the baseline flit
	// width at Table 1's VC depth in flits, so the per-subnet buffering is
	// an eighth of the baseline reply router's (the eight subnets together
	// match it), and routing is dimension-ordered — a 65-flit packet worms
	// across shallow buffers; whole-packet adaptive allocation would
	// degenerate to store-and-forward.
	DA2Mesh: {"DA2Mesh", placement.Diamond, []netRow{
		{name: "request", role: requests},
		{name: "reply", role: replies, copies: da2meshSubnets, fast: true, xy: true, flitBytes: 16 / da2meshSubnets},
	}},
	MultiPort: {"MultiPort", placement.Diamond, []netRow{
		{name: "request", role: requests, ejectPorts: multiPortPorts},
		{name: "reply", role: replies, injectPorts: multiPortPorts,
			power: power.NetworkOptions{ExtraNIBuffers: multiPortPorts - 1}},
	}},
	// The request network is untouched (§4.4); the reply network gains the
	// EIR input ports and the CB NI's four extra buffers, wired over 2-hop
	// interposer links.
	EquiNox: {"EquiNox", placement.NQueen, []netRow{
		{name: "request", role: requests},
		{name: "reply", role: replies, eirs: true,
			power: power.NetworkOptions{ExtraNIBuffers: 4, InterposerLinkMM: 2}},
	}},
}

// String implements fmt.Stringer.
func (s SchemeKind) String() string {
	if s < 0 || s >= NumSchemes {
		return fmt.Sprintf("SchemeKind(%d)", int(s))
	}
	return schemes[s].name
}

// ParseScheme resolves a scheme by display name, exactly or — the names
// being distinct under case folding — case-insensitively. It is the inverse
// of String.
func ParseScheme(name string) (SchemeKind, bool) {
	for s := range schemes {
		if strings.EqualFold(schemes[s].name, name) {
			return SchemeKind(s), true
		}
	}
	return 0, false
}

// AllSchemes lists the seven schemes in paper order.
func AllSchemes() []SchemeKind {
	return []SchemeKind{SingleBase, VCMono, InterposerCMesh, SeparateBase, DA2Mesh, MultiPort, EquiNox}
}

// network is one entry of a System's network list: a physical network with
// the role, clock domain and pricing its scheme row gave it.
type network struct {
	*noc.Network
	role  role
	fast  bool
	power power.NetworkOptions
}

// buildNetworks instantiates the scheme's row, in list order.
func (c *Config) buildNetworks(cbs []geom.Point) ([]network, error) {
	tileMM := power.Default28nm().TilePitchMM
	var nets []network
	for _, row := range schemes[c.Scheme].nets {
		for i := 0; i < max(row.copies, 1); i++ {
			name := row.name
			if row.copies > 0 {
				name = fmt.Sprintf("%s%d", row.name, i)
			}
			w, h := c.Width, c.Height
			if row.concentrated {
				w, h = (w+1)/2, (h+1)/2
			}
			nc := noc.DefaultConfig(name, w, h)
			nc.ClockGHz = c.CoreClockGHz
			if row.fast {
				nc.ClockGHz = c.CoreClockGHz * fastClockRatio
			}
			nc.VCPolicy = row.vcPolicy
			if row.xy {
				nc.Routing = noc.RoutingXY
			}
			if row.flitBytes > 0 {
				nc.FlitBytes = row.flitBytes
			}
			nc.EjectPortsPerCB, nc.InjectPortsPerCB = row.ejectPorts, row.injectPorts
			if row.eirs {
				nc.EIRGroups = c.EIRGroups
			}
			if row.concentrated {
				nc.VCDepthFlits = noc.SizeInFlits(noc.ReadReply, nc.FlitBytes, nc.LineBytes)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						nc.CBs = append(nc.CBs, geom.Pt(x, y))
					}
				}
				nc.SpokesPerNode = 4
			} else {
				nc.CBs = cbs
			}
			n, err := noc.New(nc)
			if err != nil {
				return nil, err
			}
			e := network{Network: n, role: row.role, fast: row.fast, power: row.power}
			e.power.ExtraNIBuffers *= len(cbs)
			e.power.LinkPitchMM *= tileMM
			e.power.InterposerLinkMM *= tileMM
			nets = append(nets, e)
		}
	}
	return nets, nil
}
