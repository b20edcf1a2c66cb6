package noc

import (
	"fmt"

	"equinox/internal/geom"
)

// RoutingMode selects the routing algorithm.
type RoutingMode int

// Routing modes.
const (
	// RoutingXY is dimension-ordered (X then Y) deterministic routing.
	RoutingXY RoutingMode = iota
	// RoutingMinimalAdaptive is west-first minimal adaptive routing (the
	// Glass & Ni turn model): westward hops are taken first, eastbound
	// packets choose among productive directions by downstream credit. The
	// restricted turn set keeps the channel dependence graph acyclic, so
	// Table 1's "Minimum adaptive" is deadlock-free at full wormhole
	// throughput on every VC.
	RoutingMinimalAdaptive
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	if m == RoutingXY {
		return "XY"
	}
	return "MinimalAdaptive"
}

// VCPolicy selects how traffic classes map to virtual channels on a shared
// physical network.
type VCPolicy int

// VC policies.
const (
	// VCPrivate gives all VCs to the network's single traffic class
	// (separate-network schemes).
	VCPrivate VCPolicy = iota
	// VCByClass statically splits VCs between request and reply traffic
	// (SingleBase: VC0 request, VC1 reply).
	VCByClass
	// VCMonopolize is VCByClass plus the monopolization of Jang et al. [4]:
	// reply packets may claim an idle request VC when their own VC is taken.
	// Only the reply→request borrowing direction is allowed so that reply
	// progress never depends on request progress (protocol deadlock safety).
	VCMonopolize
)

// String implements fmt.Stringer.
func (p VCPolicy) String() string {
	switch p {
	case VCPrivate:
		return "Private"
	case VCByClass:
		return "ByClass"
	default:
		return "Monopolize"
	}
}

// Config describes one physical network instance.
type Config struct {
	Name   string
	Width  int
	Height int

	VCsPerPort   int // Table 1: 2 per port
	VCDepthFlits int // Table 1: 1 packet per VC; depth = max packet flits

	FlitBytes int // link/phit width in bytes (16 = 128-bit)
	LineBytes int // cache line size carried by data packets

	Routing  RoutingMode
	VCPolicy VCPolicy

	// InjQueuePackets is the per-NI injection queue capacity in packets
	// (the NI core-side buffer feeding the per-router injection buffer).
	InjQueuePackets int

	// ClockGHz is the network clock; latency comparisons across clock
	// domains (DA2Mesh) are done in nanoseconds.
	ClockGHz float64

	// EjectPortsPerCB widens ejection at CB-connected routers (MultiPort).
	// Zero means 1.
	EjectPortsPerCB int
	// InjectPortsPerCB widens injection at CB-connected routers (MultiPort).
	// Zero means 1.
	InjectPortsPerCB int

	// SpokesPerNode attaches several fully independent NIs to every router
	// (each with its own injection port), modelling concentration: each of
	// the tiles sharing an Interposer-CMesh router keeps a dedicated spoke.
	// Zero or one means a single NI per node. Packets select their spoke via
	// Packet.Spoke.
	SpokesPerNode int

	// CBs marks the cache-bank tiles. Needed by MultiPort and by the stats
	// layer; may be nil for PE-only overlay networks.
	CBs []geom.Point

	// EIRGroups enables the EquiNox NI and EIR input ports: for each CB
	// tile, the set of equivalent injection routers reachable over the
	// interposer. Nil for non-EquiNox networks.
	EIRGroups map[geom.Point][]geom.Point
}

// DefaultConfig returns the paper's Table 1 configuration for one w×h mesh
// network carrying a single class.
func DefaultConfig(name string, w, h int) Config {
	flitBytes := 16
	lineBytes := 128
	depth := SizeInFlits(ReadReply, flitBytes, lineBytes) // 1 packet per VC
	return Config{
		Name:            name,
		Width:           w,
		Height:          h,
		VCsPerPort:      2,
		VCDepthFlits:    depth,
		FlitBytes:       flitBytes,
		LineBytes:       lineBytes,
		Routing:         RoutingMinimalAdaptive,
		VCPolicy:        VCPrivate,
		InjQueuePackets: 4,
		ClockGHz:        1.126, // PE frequency from Table 1
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	}
	if c.VCsPerPort < 1 {
		return fmt.Errorf("noc: need at least one VC per port")
	}
	if c.VCPolicy != VCPrivate && c.VCsPerPort < int(NumClasses) {
		return fmt.Errorf("noc: class-split VC policy needs ≥%d VCs", NumClasses)
	}
	if c.Routing == RoutingMinimalAdaptive && c.VCPolicy != VCPrivate {
		return fmt.Errorf("noc: adaptive routing requires a single-class (VCPrivate) network")
	}
	if c.VCDepthFlits < 1 {
		return fmt.Errorf("noc: VC depth must be ≥1 flit")
	}
	if c.FlitBytes < 1 || c.LineBytes < c.FlitBytes {
		return fmt.Errorf("noc: bad flit/line bytes %d/%d", c.FlitBytes, c.LineBytes)
	}
	if f := SizeInFlits(ReadReply, c.FlitBytes, c.LineBytes); f > maxPacketFlits {
		return fmt.Errorf("noc: %d-byte lines over %d-byte flits make %d-flit packets; at most %d are supported",
			c.LineBytes, c.FlitBytes, f, maxPacketFlits)
	}
	if c.InjQueuePackets < 1 {
		return fmt.Errorf("noc: injection queue must hold ≥1 packet")
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("noc: clock must be positive")
	}
	for _, cb := range c.CBs {
		if !cb.In(c.Width, c.Height) {
			return fmt.Errorf("noc: CB %v outside mesh", cb)
		}
	}
	// An EIR group is what the EquiNox NI wires: one buffer per direction, to
	// an EIR on that axis of a CB. Anything else would be a listed link that
	// is never simulated.
	var isCB []bool
	for cb, eirs := range c.EIRGroups {
		if !cb.In(c.Width, c.Height) {
			return fmt.Errorf("noc: EIR group CB %v outside mesh", cb)
		}
		if isCB == nil {
			isCB = c.isCB()
		}
		if !isCB[cb.ID(c.Width)] {
			return fmt.Errorf("noc: EIR group for non-CB tile %v", cb)
		}
		var taken [geom.NumDirections]bool
		for _, e := range eirs {
			if !e.In(c.Width, c.Height) {
				return fmt.Errorf("noc: EIR %v outside mesh", e)
			}
			if e == cb {
				return fmt.Errorf("noc: EIR %v is its CB's own tile", e)
			}
			dirs := geom.DirTowards(cb, e)
			if len(dirs) != 1 {
				return fmt.Errorf("noc: EIR %v not on an axis of CB %v", e, cb)
			}
			if taken[dirs[0]] {
				return fmt.Errorf("noc: CB %v has two EIRs to the %v (second: %v)", cb, dirs[0], e)
			}
			taken[dirs[0]] = true
		}
	}
	// The allocators track input VCs and output links in 64-bit occupancy
	// masks, one bit per (input port, VC) slot and per output port.
	in, out := c.portCounts()
	for id := range in {
		if in[id]*c.VCsPerPort > maskBits || out[id] > maskBits {
			return fmt.Errorf("noc: router %v needs %d input ports x %d VCs and %d output ports; at most %d input VCs and %d output ports per router are supported",
				geom.FromID(id, c.Width), in[id], c.VCsPerPort, out[id], maskBits, maskBits)
		}
	}
	return nil
}

// maskBits is the width of the routers' occupancy masks.
const maskBits = 64

// portCounts returns, per router, the number of input and output ports New
// builds: the five mesh ports plus concentration spokes, MultiPort CB
// injection/ejection ports, and one EIR injection port per EIR grouped under
// a CB tile. It must be called on a configuration whose CBs and EIR groups
// passed the checks in Validate.
func (c Config) portCounts() (in, out []int) {
	in, out = make([]int, c.Nodes()), make([]int, c.Nodes())
	for id := range in {
		in[id] = int(geom.NumDirections) + max(c.SpokesPerNode-1, 0)
		out[id] = int(geom.NumDirections)
	}
	for id, cb := range c.isCB() {
		if !cb {
			continue
		}
		out[id] += max(c.EjectPortsPerCB-1, 0)
		// Mirrors New's choice of NI for a CB tile.
		switch {
		case c.SpokesPerNode > 1:
		case c.EIRGroups != nil:
			for _, e := range c.EIRGroups[geom.FromID(id, c.Width)] {
				in[e.ID(c.Width)]++
			}
		case c.InjectPortsPerCB > 1:
			in[id] += c.InjectPortsPerCB - 1
		}
	}
	return in, out
}

// isCB returns the index-keyed CB lookup (a point-keyed map costs a hash per
// probe and allocates; the mesh is dense so a flat bool table is both).
func (c Config) isCB() []bool {
	t := make([]bool, c.Nodes())
	for _, cb := range c.CBs {
		t[cb.ID(c.Width)] = true
	}
	return t
}

// Nodes returns the number of tiles.
func (c Config) Nodes() int { return c.Width * c.Height }

// CycleNS converts cycles of this network's clock into nanoseconds.
func (c Config) CycleNS(cycles int64) float64 {
	return float64(cycles) / c.ClockGHz
}
