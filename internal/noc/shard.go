package noc

import (
	"sync/atomic"

	"equinox/internal/flight"
	"equinox/internal/par"
)

// The sharded stepper partitions the mesh into Cfg.Shards contiguous row
// bands and runs phases 1 (link delivery), 3 (VC allocation), and 4 (switch
// allocation + traversal) band-parallel with a barrier per phase. Phase 2
// (NI injection) stays serial: EquiNox NIs stream into remote EIR routers
// across the whole mesh, and the phase is a small fraction of cycle time.
//
// Determinism argument. The serial stepper visits routers in ascending ID
// order; within a phase, the only effects that cross a router boundary are
//
//   - phase 1: a flit landing in a downstream input buffer (and its
//     LinkTraverse flight event),
//   - phase 4: the credit returned to the upstream output port, the
//     flit recycled into the network-wide pool, flight events, OnDeliver
//     callbacks, and the shared Stats counters.
//
// Every such effect is either commutative over a cycle (counters) or is
// staged in per-shard queues and applied at the barrier in ascending shard
// order — which, because shards are ascending ID ranges and each shard scans
// its slice of the sorted active list in order, replays the exact serial
// order. Credit returns are order-sensitive *within* phase 4 in the serial
// stepper (a later router could observe a credit freed by an earlier one in
// the same cycle), so both paths now defer them to an end-of-phase apply:
// serial and sharded execution see identical credit state at every read.
// Everything a phase reads (input buffers, own out-port credits/owners,
// round-robin pointers) is router-local and only written by barrier-separated
// phases, so shard-parallel execution computes exactly the serial result.
type shardState struct {
	lo, hi int32 // router ID range [lo, hi)

	// Slice bounds into n.active for the current cycle, refreshed after each
	// active-list merge (phase 1 and phases 3/4 see different lists).
	alo, ahi int

	scratch   allocScratch    // this worker's allocator working memory
	newly     []int32         // routers this shard activated (drained by mergeActive)
	arrivals  []stagedArrival // phase-1 deliveries landing outside [lo, hi)
	credits   []int32         // phase-4 upstream credit returns (creditSlab indices)
	frees     []*Flit         // ejected flits to recycle into the network pool
	fops      []stagedFlightOp
	delivers  []*Packet // staged OnDeliver callbacks
	stats     Stats     // phase-4 stat deltas, merged at the barrier
	moved     int
	delivered int
}

// stagedArrival is a phase-1 link delivery whose target router lives in a
// different shard. Each input VC has exactly one upstream link, so arrivals
// for one buffer always come from one shard and per-link FIFO order holds.
type stagedArrival struct {
	to   *Router
	slot int32 // input slot at the target router
	f    *Flit
}

// stagedFlightOp is a flight-recorder operation held until the phase
// barrier. Record and EjectObserved must interleave exactly as the serial
// stepper would issue them (tail-latency dumps snapshot the ring at
// EjectObserved time), so one ordered list carries both op kinds.
type stagedFlightOp struct {
	ev      flight.Event
	lat     int64 // eject ops: full-precision latency for the watchdogs
	eject   bool
	sampled bool
}

// Step phases dispatched through runShardPhase.
const (
	phaseLink = iota
	phaseVC
	phaseSA
	numPhases
)

// parMinActive gates the parallel path per cycle: below this many active
// routers the sharded stepper runs its phases inline. Both paths defer
// credits identically, so the choice is invisible in the results — it only
// avoids paying barrier overhead on idle or draining networks.
const parMinActive = 24

// barrierSampleEvery is the sampling stride (in sharded cycles) for the
// barrier-wait observer; sampling keeps the clock reads off most cycles.
const barrierSampleEvery = 64

// barrierObserver, when set, receives sampled per-phase barrier wait times
// from every sharded network in the process (see SetBarrierObserver).
var barrierObserver atomic.Value // of func(phase int, waitNS int64)

// SetBarrierObserver installs a process-wide callback fed sampled per-phase
// barrier wait times (phase is one of 0=link, 1=vc, 2=sa). The service layer
// uses it to expose shard-imbalance histograms; nil uninstalls.
func SetBarrierObserver(fn func(phase int, waitNS int64)) {
	barrierObserver.Store(fn)
}

// PhaseName names a barrier phase index for metric labels.
func PhaseName(phase int) string {
	switch phase {
	case phaseLink:
		return "link"
	case phaseVC:
		return "vc"
	default:
		return "sa"
	}
}

// NumPhases is the number of barrier phases a sharded cycle runs.
const NumPhases = numPhases

// initShards builds the row-band partition. Called from New when
// cfg.Shards > 1; the effective count is clamped to Height.
func (n *Network) initShards() {
	k := n.Cfg.Shards
	if k > n.Cfg.Height {
		k = n.Cfg.Height
	}
	if k <= 1 {
		return
	}
	n.shardOf = make([]int32, len(n.Routers))
	rowLo := 0
	for s := 0; s < k; s++ {
		// Spread Height rows over k bands, remainder to the front bands.
		rows := n.Cfg.Height / k
		if s < n.Cfg.Height%k {
			rows++
		}
		sh := &shardState{
			lo: int32(rowLo * n.Cfg.Width),
			hi: int32((rowLo + rows) * n.Cfg.Width),
		}
		for _, r := range n.Routers[sh.lo:sh.hi] {
			sh.scratch.fit(len(r.in), len(r.out), n.nvc)
		}
		for id := sh.lo; id < sh.hi; id++ {
			n.shardOf[id] = int32(s)
		}
		n.shards = append(n.shards, sh)
		rowLo += rows
	}
	n.group = par.NewGroup()
	n.phaseFn = n.runShardPhase
}

// Shards returns the effective shard count the network steps with (1 =
// serial).
func (n *Network) Shards() int {
	if len(n.shards) == 0 {
		return 1
	}
	return len(n.shards)
}

// shardBounds slices the sorted active list into per-shard ranges. Linear in
// len(active): the list and the shard boundaries are both ascending.
func (n *Network) shardBounds() {
	lo := 0
	for _, sh := range n.shards {
		hi := lo
		for hi < len(n.active) && n.active[hi] < sh.hi {
			hi++
		}
		sh.alo, sh.ahi = lo, hi
		lo = hi
	}
}

// runShardPhase executes the current phase over one shard's slice of the
// active list. Invoked concurrently, one call per shard, via n.group.
func (n *Network) runShardPhase(k int) {
	sh := n.shards[k]
	now := n.now
	switch n.curPhase {
	case phaseLink:
		for _, id := range n.active[sh.alo:sh.ahi] {
			r := n.Routers[id]
			if r.linkBusy != 0 {
				r.deliverArrivals(now, sh)
			}
		}
	case phaseVC:
		for _, id := range n.active[sh.alo:sh.ahi] {
			r := n.Routers[id]
			if r.needVA != 0 {
				r.vcAllocate(now, sh)
			}
		}
	default: // phaseSA
		for _, id := range n.active[sh.alo:sh.ahi] {
			r := n.Routers[id]
			if r.ready != 0 {
				sh.moved += r.switchAllocate(now, sh)
			}
		}
	}
}

// runPhasePar dispatches one phase across the shards and accounts the
// barrier wait.
func (n *Network) runPhasePar(phase int) {
	n.curPhase = phase
	n.group.Run(len(n.shards), n.phaseFn)
	if n.Stats.cycles%barrierSampleEvery == 0 {
		w := n.group.TakeWaitNS()
		n.barrierWaitNS[phase] += w
		if fn, ok := barrierObserver.Load().(func(int, int64)); ok && fn != nil {
			fn(phase, w)
		}
	}
}

// BarrierWaitNS returns the cumulative sampled barrier wait for one phase
// (0=link, 1=vc, 2=sa) since the network was built. Samples are taken every
// barrierSampleEvery sharded cycles, so the value is an estimator of shard
// imbalance, not a total — compare runs, don't sum into wall time.
func (n *Network) BarrierWaitNS(phase int) int64 {
	return n.barrierWaitNS[phase]
}

// flushFlightOps replays a shard's staged flight operations in order.
func (n *Network) flushFlightOps(sh *shardState) {
	if len(sh.fops) == 0 {
		return
	}
	fr := n.flight
	for i := range sh.fops {
		op := &sh.fops[i]
		if op.eject {
			if op.sampled {
				fr.Record(op.ev)
			}
			fr.EjectObserved(op.ev.Cycle, op.ev.Pkt, op.lat, op.sampled)
		} else {
			fr.Record(op.ev)
		}
	}
	sh.fops = sh.fops[:0]
}

// applyCredits performs deferred credit returns; increments commute, so the
// apply order within the batch is irrelevant.
func (n *Network) applyCredits(creds []int32) {
	for _, ix := range creds {
		n.creditSlab[ix]++
	}
}

// mergeShardStats folds a shard's phase-4 stat deltas into the network's
// Stats and resets them. Merge covers the per-class counters; the activity
// counters are added explicitly (Merge predates them being shard-split).
func (n *Network) mergeShardStats(st *Stats) {
	n.Stats.Merge(st)
	n.Stats.FlitHops += st.FlitHops
	n.Stats.LinkFlits += st.LinkFlits
	n.Stats.EjectFlits += st.EjectFlits
	n.Stats.InterposerFlits += st.InterposerFlits
	*st = Stats{}
}

// stepSharded is Step's parallel path (Cfg.Shards > 1). Phase effects that
// cross shard boundaries are staged per shard and merged in ascending shard
// order at each barrier; see the determinism argument at the top of the
// file. Cycles with few active routers run the same phases inline instead —
// identical results either way, since both paths defer credit returns.
func (n *Network) stepSharded() {
	now := n.now
	n.mergeActive()
	// 1. Deliver link arrivals due this cycle.
	if len(n.active) >= parMinActive {
		n.shardBounds()
		n.runPhasePar(phaseLink)
		for _, sh := range n.shards {
			n.flushFlightOps(sh)
			for _, a := range sh.arrivals {
				a.to.accept(int(a.slot), a.f)
			}
			sh.arrivals = sh.arrivals[:0]
		}
	} else {
		for _, id := range n.active {
			r := n.Routers[id]
			if r.linkBusy != 0 {
				r.deliverArrivals(now, nil)
			}
		}
	}
	// 2. NI injection streams flits into router input buffers (serial).
	n.mergeActiveNIs()
	for _, ix := range n.activeNI {
		n.nis[ix].step(now)
	}
	n.mergeActive()
	// 3+4. Allocation phases.
	moved := 0
	if len(n.active) >= parMinActive {
		n.shardBounds()
		n.runPhasePar(phaseVC)
		for _, sh := range n.shards {
			n.flushFlightOps(sh)
		}
		n.runPhasePar(phaseSA)
		for _, sh := range n.shards {
			n.flushFlightOps(sh)
			for _, p := range sh.delivers {
				n.OnDeliver(p)
			}
			sh.delivers = sh.delivers[:0]
			n.applyCredits(sh.credits)
			sh.credits = sh.credits[:0]
			n.flitPool = append(n.flitPool, sh.frees...)
			sh.frees = sh.frees[:0]
			n.mergeShardStats(&sh.stats)
			n.delivered += sh.delivered
			sh.delivered = 0
			moved += sh.moved
			sh.moved = 0
		}
	} else {
		for _, id := range n.active {
			r := n.Routers[id]
			if r.needVA != 0 {
				r.vcAllocate(now, nil)
			}
		}
		for _, id := range n.active {
			r := n.Routers[id]
			if r.ready != 0 {
				moved += r.switchAllocate(now, nil)
			}
		}
	}
	// Deferred credit returns from the inline path (the parallel path applied
	// its per-shard batches above); same end-of-phase-4 visibility either way.
	n.applyCredits(n.credits)
	n.credits = n.credits[:0]
	if moved > 0 {
		n.lastProgress = now
	}
	if n.probe != nil && now%n.probe.Every == 0 {
		n.probe.sample(n)
	}
	if n.telem != nil && now%n.telem.every == 0 {
		n.telem.tick(n, now)
	}
	n.pruneActive()
	n.Stats.cycles++
	n.now++
}
