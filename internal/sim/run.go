package sim

import (
	"context"
	"fmt"
	"time"

	"equinox/internal/flight"
	"equinox/internal/geom"
	"equinox/internal/gpu"
	"equinox/internal/noc"
	"equinox/internal/obs/trace"
	"equinox/internal/power"
	"equinox/internal/workloads"
)

// Result summarizes one full-system simulation.
type Result struct {
	Scheme    SchemeKind
	Benchmark string

	ExecCycles   int64
	ExecNS       float64
	Instructions int64
	IPC          float64
	TimedOut     bool

	// Packet latency breakdown in nanoseconds (Figure 10's four parts).
	ReqQueueNS float64
	ReqNetNS   float64
	RepQueueNS float64
	RepNetNS   float64

	ReplyBitShare float64 // §2.2's reply share of NoC bits

	Energy  power.EnergyBreakdown
	AreaMM2 float64

	L1HitRate float64
	L2HitRate float64
}

// TotalLatencyNS returns the delivered-weighted average packet latency.
func (r Result) TotalLatencyNS() float64 {
	return r.ReqQueueNS + r.ReqNetNS + r.RepQueueNS + r.RepNetNS
}

// EDP returns the energy-delay product (pJ·ns).
func (r Result) EDP() float64 { return power.EDP(r.Energy.TotalPJ(), r.ExecNS) }

// System is one instantiated full-system simulation.
type System struct {
	cfg  Config
	prof workloads.Profile

	cbs     []geom.Point
	cbIndex []int     // tile ID → bank index, -1 for non-CB tiles
	pes     []*gpu.PE // node → PE, nil at CB tiles
	peList  []*gpu.PE // deterministic iteration order
	banks   []*gpu.CB

	// nets is the scheme's network list, in the order its row declares
	// (schemes.go says what that order pins). The fields after it are views
	// of the list, filtered once at construction for the per-cycle paths.
	nets     []network
	all      []*noc.Network // every network (Networks)
	request  *noc.Network   // the request carrier
	carriers []*noc.Network // the reply carriers
	overlay  *noc.Network   // the long-distance overlay; nil without one
	replyRR  []int          // per-bank round-robin over carriers
	// fastAcc accumulates the fast clock domain's fractional steps per core
	// cycle. It is one accumulator for all fast networks: they step
	// round-robin inside it, so their delivery hooks interleave per fast
	// cycle rather than network by network.
	fastAcc float64
	now     int64

	// Hot-loop scratch and pools: the cycle loop runs millions of times per
	// evaluation, so per-cycle allocations are hoisted here.
	servedBank []bool        // drainEjections per-cycle scratch
	pktPool    []*noc.Packet // recycled packets (injection → delivery → pop)
	txPool     gpu.TxPool    // recycled transactions (PE issue → reply retired)

	// pktID numbers every packet the system creates (IDs start at 1), giving
	// the flight recorder a stable identity that survives pooling.
	pktID int64

	// flight, when attached, bundles the per-network recorders (nets
	// order); the cycle loop runs its watchdogs at the cancellation-check
	// cadence.
	flight *flight.Capture
}

// newPacket draws a packet from the pool (or the heap on a cold start).
// Every field is overwritten, so recycled packets are indistinguishable from
// fresh ones and determinism is unaffected.
func (s *System) newPacket(typ noc.PacketType, src, dst, spoke int, payload any) *noc.Packet {
	var p *noc.Packet
	if k := len(s.pktPool); k > 0 {
		p = s.pktPool[k-1]
		s.pktPool = s.pktPool[:k-1]
	} else {
		p = &noc.Packet{}
	}
	s.pktID++
	*p = noc.Packet{ID: s.pktID, Type: typ, Src: src, Dst: dst, Spoke: spoke, Payload: payload}
	return p
}

func (s *System) freePacket(p *noc.Packet) { s.pktPool = append(s.pktPool, p) }

// NewSystem builds a system for one scheme and benchmark profile.
func NewSystem(cfg Config, prof workloads.Profile) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	cbs, err := cfg.CBTiles()
	if err != nil {
		return nil, err
	}
	nets, err := cfg.buildNetworks(cbs)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:        cfg,
		prof:       prof,
		cbs:        cbs,
		cbIndex:    make([]int, cfg.Width*cfg.Height),
		pes:        make([]*gpu.PE, cfg.Width*cfg.Height),
		nets:       nets,
		replyRR:    make([]int, len(cbs)),
		servedBank: make([]bool, len(cbs)),
	}
	for _, n := range nets {
		s.all = append(s.all, n.Network)
		if n.role&requests != 0 {
			s.request = n.Network
		}
		if n.role&replies != 0 {
			s.carriers = append(s.carriers, n.Network)
		}
		if n.role&overlay != 0 {
			s.overlay = n.Network
		}
	}
	for i := range s.cbIndex {
		s.cbIndex[i] = -1
	}
	for i, cb := range cbs {
		s.cbIndex[cb.ID(cfg.Width)] = i
		bank, err := gpu.NewCB(i, cfg.CB)
		if err != nil {
			return nil, err
		}
		s.banks = append(s.banks, bank)
	}
	instr := prof.Instructions
	if cfg.InstructionsPerPE > 0 {
		instr = cfg.InstructionsPerPE
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			p := geom.Pt(x, y)
			node := p.ID(cfg.Width)
			if s.cbIndex[node] >= 0 {
				continue
			}
			gen := prof.NewGenerator(node, instr, cfg.Seed)
			pe, err := gpu.NewPE(node, cfg.PE, gen)
			if err != nil {
				return nil, err
			}
			pe.Txs = &s.txPool
			s.pes[node] = pe
			s.peList = append(s.peList, pe)
		}
	}
	return s, nil
}

// bankFor maps an address to its cache bank (line-interleaved, Table 1's
// eight banks).
func (s *System) bankFor(addr uint64) int {
	line := addr / uint64(workloads.LineBytes)
	return int(line % uint64(len(s.cbs)))
}

// cmeshNode maps a tile to its concentrated-mesh router node.
func (s *System) cmeshNode(tile int) int {
	p := geom.FromID(tile, s.cfg.Width)
	cw := (s.cfg.Width + 1) / 2
	return (p.Y/2)*cw + p.X/2
}

// cmeshSpoke is the tile's dedicated injection spoke at its CMesh router.
func (s *System) cmeshSpoke(tile int) int {
	p := geom.FromID(tile, s.cfg.Width)
	return (p.Y%2)*2 + p.X%2
}

// tryOverlay injects a long-distance packet — one whose tiles sit on
// different overlay routers more than cmeshHopThreshold hops apart — into
// the overlay, addressed in its concentrated coordinates. A refusal means
// the source tile's spoke is busy; the caller falls back to the carriers,
// which reach everywhere — the two inject in parallel, which is where the
// extra network's capacity pays off at the reply bottleneck.
func (s *System) tryOverlay(typ noc.PacketType, src, dst int, tx *gpu.Transaction) bool {
	if s.overlay == nil || s.cmeshNode(src) == s.cmeshNode(dst) {
		return false
	}
	a, b := geom.FromID(src, s.cfg.Width), geom.FromID(dst, s.cfg.Width)
	if geom.Manhattan(a, b) <= cmeshHopThreshold {
		return false
	}
	p := s.newPacket(typ, s.cmeshNode(src), s.cmeshNode(dst), s.cmeshSpoke(src), tx)
	if s.overlay.TryInject(p, s.overlay.Now()) {
		return true
	}
	s.freePacket(p)
	return false
}

// injectRequest routes a PE request transaction into the overlay or the
// request carrier.
func (s *System) injectRequest(tx *gpu.Transaction) bool {
	bank := s.bankFor(tx.Addr)
	dst := s.cbs[bank].ID(s.cfg.Width)
	typ := noc.ReadRequest
	if tx.Write {
		typ = noc.WriteRequest
	}
	if s.tryOverlay(typ, tx.PE, dst, tx) {
		return true
	}
	p := s.newPacket(typ, tx.PE, dst, 0, tx)
	if s.request.TryInject(p, s.request.Now()) {
		return true
	}
	s.freePacket(p)
	return false
}

// injectReply routes a CB reply transaction into the overlay or, round-robin
// from the bank's last success, the reply carriers ([5] distributes packets
// among DA2Mesh's subnetworks to use their aggregate injection bandwidth;
// every other scheme has one carrier). One pooled packet serves every
// carrier attempt; TryInject only retains it on success.
func (s *System) injectReply(bank int, tx *gpu.Transaction) bool {
	src := s.cbs[bank].ID(s.cfg.Width)
	typ := noc.ReadReply
	if tx.Write {
		typ = noc.WriteReply
	}
	if s.tryOverlay(typ, src, tx.PE, tx) {
		return true
	}
	p := s.newPacket(typ, src, tx.PE, 0, tx)
	i := s.replyRR[bank]
	for range s.carriers {
		net := s.carriers[i]
		if i++; i == len(s.carriers) {
			i = 0
		}
		if net.TryInject(p, net.Now()) {
			s.replyRR[bank] = i
			return true
		}
	}
	s.freePacket(p)
	return false
}

// drainEjections pops delivered packets from every network, in list order,
// and hands them to the right endpoint model, visiting only the nodes that
// hold one. Each cache bank consumes at most one request per core cycle (its
// single request pipeline), tracked across all networks — under
// Interposer-CMesh a bank can receive from both the base mesh and the CMesh
// in the same cycle.
func (s *System) drainEjections() {
	servedBank := s.servedBank
	for i := range servedBank {
		servedBank[i] = false
	}
	for _, net := range s.all {
		for node := net.NextDelivered(0); node >= 0; node = net.NextDelivered(node + 1) {
			// Replies and write acks drain freely into the PEs.
			for budget := 4; budget > 0; budget-- {
				p := net.PopDeliveredClass(node, noc.Reply)
				if p == nil {
					break
				}
				tx := p.Payload.(*gpu.Transaction)
				// Read and write replies both retire the PE's outstanding
				// transaction (writes are posted but still tracked for MSHR
				// accounting), and with it the transaction itself.
				if pe := s.pes[tx.PE]; pe != nil {
					pe.Complete(tx.Line)
				}
				s.txPool.Put(tx)
				s.freePacket(p)
			}
			// Requests: a CMesh node aggregates several tiles, so keep
			// popping while the head requests hit distinct, unserved banks.
			for budget := 4; budget > 0; budget-- {
				p := net.PeekDeliveredClass(node, noc.Request)
				if p == nil {
					break
				}
				tx := p.Payload.(*gpu.Transaction)
				bank := s.bankFor(tx.Addr)
				if servedBank[bank] {
					break // head-of-line wait until next cycle
				}
				if !s.banks[bank].ProcessRequest(tx, s.now) {
					break // CB backpressure: leave it in the eject queue
				}
				servedBank[bank] = true
				net.PopDeliveredClass(node, noc.Request)
				s.freePacket(p)
			}
		}
	}
}

// Step advances the system one core cycle.
func (s *System) Step() {
	// 1. Memory side.
	for _, cb := range s.banks {
		cb.Step(s.now)
	}
	// 2. Endpoint ejection handling.
	s.drainEjections()
	// 3. CB reply injection: the NI core logic serializes packet processing,
	// one enqueue per CB per cycle (§4.4's NI model; DA2Mesh's parallelism
	// comes from the eight subnet NIs streaming concurrently afterwards).
	for bank := range s.banks {
		if tx := s.banks[bank].PeekReply(); tx != nil {
			if s.injectReply(bank, tx) {
				s.banks[bank].PopReply()
			}
		}
	}
	// 4. PE issue (fixed tile order for determinism).
	for _, pe := range s.peList {
		pe.Step(s.injectRequest)
	}
	// 5. Advance networks: the core domain once, then the fast domain
	// (DA2Mesh's subnets) as often as its accumulated ratio allows.
	for i := range s.nets {
		if !s.nets[i].fast {
			s.nets[i].Step()
		}
	}
	s.fastAcc += fastClockRatio
	for ; s.fastAcc >= 1; s.fastAcc-- {
		for i := range s.nets {
			if s.nets[i].fast {
				s.nets[i].Step()
			}
		}
	}
	s.now++
}

// Finished reports whether every PE retired its budget and all queues
// everywhere drained.
func (s *System) Finished() bool {
	for _, pe := range s.peList {
		if !pe.Finished() {
			return false
		}
	}
	for _, cb := range s.banks {
		if !cb.Drained() {
			return false
		}
	}
	return true
}

// Run executes the simulation to completion and gathers the result.
func Run(cfg Config, prof workloads.Profile) (Result, error) {
	s, err := NewSystem(cfg, prof)
	if err != nil {
		return Result{}, err
	}
	return s.RunToCompletion()
}

// cancelCheckCycles is how often the cycle loop polls ctx.Done(). At the
// default core clock a check every 4096 cycles bounds cancellation latency
// to a few microseconds of simulated time while keeping the per-cycle cost
// unmeasurable.
const cancelCheckCycles = 4096

// RunToCompletion drives Step until the system finishes or hits MaxCycles.
func (s *System) RunToCompletion() (Result, error) {
	return s.RunToCompletionContext(context.Background())
}

// RunToCompletionContext drives Step until the system finishes, hits
// MaxCycles, or ctx is cancelled. When the context carries a span, the run
// is recorded as its "sim" child, segmented into warmup (to first
// delivery), measure (to PE retirement), and drain.
func (s *System) RunToCompletionContext(ctx context.Context) (Result, error) {
	sp := trace.StartChild(ctx, "sim")
	start := time.Now()
	var warmupEnd, measureEnd time.Time
	defer func() { s.finishSimSpan(sp, start, warmupEnd, measureEnd) }()
	for !s.Finished() {
		if s.now >= s.cfg.MaxCycles {
			res := s.collect()
			res.TimedOut = true
			return res, fmt.Errorf("sim: %v/%s exceeded %d cycles", s.cfg.Scheme, s.prof.Name, s.cfg.MaxCycles)
		}
		if s.now%cancelCheckCycles == 0 {
			select {
			case <-ctx.Done():
				return s.collect(), ctx.Err()
			default:
			}
			if s.flight != nil {
				if err := s.checkFlightWatchdog(); err != nil {
					return s.collect(), err
				}
			}
			// Segment boundaries are detected at this cadence, not per
			// cycle, so tracing costs the hot loop nothing.
			if sp != nil {
				if warmupEnd.IsZero() && s.deliveredTotal() > 0 {
					warmupEnd = time.Now()
				} else if !warmupEnd.IsZero() && measureEnd.IsZero() && s.pesFinished() {
					measureEnd = time.Now()
				}
			}
		}
		s.Step()
	}
	return s.collect(), nil
}

// pesFinished reports whether every PE retired its instruction budget
// (banks and networks may still be draining).
func (s *System) pesFinished() bool {
	for _, pe := range s.peList {
		if !pe.Finished() {
			return false
		}
	}
	return true
}

// deliveredTotal sums delivered packets across every network and class.
func (s *System) deliveredTotal() int64 {
	var t int64
	for _, n := range s.all {
		t += n.Stats.TotalDelivered()
	}
	return t
}

// finishSimSpan closes the "sim" distributed-trace span, synthesizing
// warmup/measure/drain child segments from the boundaries the cycle loop
// observed. A boundary the loop never crossed collapses its segment to the
// run's end (zero duration) rather than being dropped, so the three-segment
// shape is stable across schemes and benchmarks.
func (s *System) finishSimSpan(sp *trace.Span, start, warmupEnd, measureEnd time.Time) {
	if sp == nil {
		return
	}
	end := time.Now()
	if warmupEnd.IsZero() || warmupEnd.After(end) {
		warmupEnd = end
	}
	if measureEnd.IsZero() || measureEnd.After(end) {
		measureEnd = end
	}
	if measureEnd.Before(warmupEnd) {
		measureEnd = warmupEnd
	}
	tr := sp.Trace()
	tr.Observe(sp.ID(), "warmup", start, warmupEnd.Sub(start))
	tr.Observe(sp.ID(), "measure", warmupEnd, measureEnd.Sub(warmupEnd))
	tr.Observe(sp.ID(), "drain", measureEnd, end.Sub(measureEnd))
	sp.SetAttr("scheme", s.cfg.Scheme.String())
	sp.SetAttr("benchmark", s.prof.Name)
	sp.SetAttrInt("cycles", s.now)
	sp.End()
}

// collect aggregates statistics into a Result.
func (s *System) collect() Result {
	res := Result{
		Scheme:     s.cfg.Scheme,
		Benchmark:  s.prof.Name,
		ExecCycles: s.now,
		ExecNS:     float64(s.now) / s.cfg.CoreClockGHz,
	}
	for _, pe := range s.peList {
		res.Instructions += pe.Instructions
	}
	if s.now > 0 {
		res.IPC = float64(res.Instructions) / float64(s.now)
	}

	// Latency breakdown in ns, weighted by delivered packets per network,
	// and each network's energy and area under its row's pricing — all
	// summed in list order.
	coef := power.Default28nm()
	var reqN, repN float64
	var reqQ, reqT, repQ, repT float64
	var bitsReq, bitsRep float64
	for _, n := range s.nets {
		st := &n.Stats
		ghz := n.Cfg.ClockGHz
		dq := float64(st.Delivered[noc.Request])
		dp := float64(st.Delivered[noc.Reply])
		reqN += dq
		repN += dp
		reqQ += float64(st.QueueCycles[noc.Request]) / ghz
		reqT += float64(st.NetCycles[noc.Request]) / ghz
		repQ += float64(st.QueueCycles[noc.Reply]) / ghz
		repT += float64(st.NetCycles[noc.Reply]) / ghz
		bitsReq += float64(st.Bits[noc.Request])
		bitsRep += float64(st.Bits[noc.Reply])
		cost := coef.Evaluate(n.Network, n.power)
		res.Energy.Add(cost.Energy)
		res.AreaMM2 += cost.AreaMM2
	}
	if reqN > 0 {
		res.ReqQueueNS = reqQ / reqN
		res.ReqNetNS = reqT / reqN
	}
	if repN > 0 {
		res.RepQueueNS = repQ / repN
		res.RepNetNS = repT / repN
	}
	if bitsReq+bitsRep > 0 {
		res.ReplyBitShare = bitsRep / (bitsReq + bitsRep)
	}

	// Cache diagnostics.
	var l1h, l1m, l2h, l2m int64
	for _, pe := range s.peList {
		l1h += pe.L1.Hits
		l1m += pe.L1.Misses
	}
	for _, cb := range s.banks {
		l2h += cb.L2Hits
		l2m += cb.L2Misses
	}
	if l1h+l1m > 0 {
		res.L1HitRate = float64(l1h) / float64(l1h+l1m)
	}
	if l2h+l2m > 0 {
		res.L2HitRate = float64(l2h) / float64(l2h+l2m)
	}
	return res
}

// Networks lists the system's physical networks in list order: the request
// carrier first, then the reply carriers, then the overlay. Exposed for
// tracing and tooling; the slice is the system's own and must not be modified.
func (s *System) Networks() []*noc.Network { return s.all }

// ReplyNetworks lists only the networks that carry reply traffic, in list
// order: the reply carriers, then the overlay.
func (s *System) ReplyNetworks() []*noc.Network {
	nets := append([]*noc.Network(nil), s.carriers...)
	if s.overlay != nil {
		nets = append(nets, s.overlay)
	}
	return nets
}
