// Package noc is a cycle-accurate, flit-level network-on-chip simulator in
// the spirit of BookSim 2.0, specialized for the mesh NoCs of
// interposer-based throughput processors studied by the EquiNox paper.
//
// The simulator models input-buffered virtual-channel routers with
// separable input-first allocation, credit-based flow control, XY escape
// routing plus minimal-adaptive routing, network interfaces with finite
// injection buffers, and the scheme-specific extensions the paper compares:
// VC monopolization, multiple injection ports, a concentrated interposer
// mesh, narrow reply subnets, and EquiNox's equivalent injection routers.
package noc

import "fmt"

// PacketType distinguishes the four traffic types of the M2F2M pattern.
type PacketType int

// Packet types.
const (
	ReadRequest PacketType = iota
	WriteRequest
	ReadReply
	WriteReply
)

var pktNames = [...]string{"ReadRequest", "WriteRequest", "ReadReply", "WriteReply"}

// String implements fmt.Stringer.
func (t PacketType) String() string {
	if t < 0 || int(t) >= len(pktNames) {
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
	return pktNames[t]
}

// Class is the traffic class: request or reply. The two classes ride either
// separate physical networks or disjoint VC classes (single-network type).
type Class int

// Traffic classes.
const (
	Request Class = iota
	Reply
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Request {
		return "Request"
	}
	return "Reply"
}

// ClassOf returns the traffic class a packet type belongs to.
func ClassOf(t PacketType) Class {
	if t == ReadRequest || t == WriteRequest {
		return Request
	}
	return Reply
}

// Packet is one network packet. Latency bookkeeping fields are filled in by
// the simulator as the packet progresses.
type Packet struct {
	ID    int64
	Type  PacketType
	Src   int // source node (tile) ID
	Dst   int // destination node (tile) ID
	Flits int // serialized length in flits of this network

	// Payload carries opaque simulator context (e.g. the memory transaction
	// that generated the packet). The NoC never inspects it.
	Payload any

	// Spoke selects the injection spoke at the source node on networks
	// configured with SpokesPerNode > 1 (concentrated meshes); ignored
	// otherwise.
	Spoke int

	// Latency bookkeeping, in cycles of the network's clock domain.
	CreatedAt   int64 // enqueued at the source NI
	InjectedAt  int64 // head flit accepted by the first router
	DeliveredAt int64 // tail flit ejected at the destination
}

// QueueLatency is the source-side queuing component of the packet latency
// (paper Figure 10's "queuing" part).
func (p *Packet) QueueLatency() int64 { return p.InjectedAt - p.CreatedAt }

// NetworkLatency is the in-network component of the packet latency (the
// "non-queuing" part of Figure 10).
func (p *Packet) NetworkLatency() int64 { return p.DeliveredAt - p.InjectedAt }

// TotalLatency is the end-to-end NI-to-NI latency.
func (p *Packet) TotalLatency() int64 { return p.DeliveredAt - p.CreatedAt }

// Flit is one flow-control unit of a packet. Flits are values: NIs build
// them as they stream, and input buffers and the link arrival list hold them
// in place. A flit is 16 bytes and holds no pointer — it names its packet by
// a slot of the network's packet table (Network.pkts) — so the flit rings,
// the bulk of a network's memory, are cheap to allocate and never scanned by
// the collector.
type Flit struct {
	pkt    int32 // Network.pkts slot of the packet
	Index  int16 // 0-based position within the packet (Config.Validate bounds it)
	IsHead bool
	IsTail bool

	// enteredRouter is the cycle the flit entered the buffer of the router
	// it currently occupies; used for the Figure 4 heat maps.
	enteredRouter int64
}

// maxPacketFlits bounds a packet's length so Flit.Index fits in 16 bits.
const maxPacketFlits = 1<<15 - 1

// SizeInFlits returns the length of a packet of the given type for a network
// with the given flit width, assuming the paper's 128-byte cache lines and
// single-flit control packets.
func SizeInFlits(t PacketType, flitBytes, lineBytes int) int {
	switch t {
	case ReadRequest, WriteReply:
		return 1
	default: // ReadReply, WriteRequest carry a full cache line
		n := (lineBytes + flitBytes - 1) / flitBytes
		return 1 + n
	}
}

// Bits returns the payload size of the packet in bits on a network with the
// given flit width, used for the traffic-share accounting of §2.2.
func (p *Packet) Bits(flitBytes int) int { return p.Flits * flitBytes * 8 }
