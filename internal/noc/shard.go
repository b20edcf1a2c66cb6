package noc

import (
	"math/bits"
	"sync/atomic"

	"equinox/internal/flight"
	"equinox/internal/par"
)

// The sharded stepper partitions the mesh into Cfg.Shards contiguous row
// bands and runs the serial stepper's allocation kernels — phase 3 (VC
// allocation) and phase 4 (switch allocation + traversal), nine tenths of a
// cycle's work — band-parallel with a barrier per phase. Phase 1 (link
// delivery) and phase 2 (NI injection) stay serial: a delivery is a flit copy
// and a mask update, cheaper than the barrier that would parallelise it
// (measured: no gain on 16×16), and EquiNox NIs stream into remote EIR
// routers across the whole mesh.
//
// Determinism argument. The serial stepper visits routers in ascending ID
// order; within phases 3 and 4 the only effects that cross a router boundary
// are phase 4's: the credit returned to the upstream output port, the flit
// appended to the arrival list, flight events, OnDeliver callbacks, the
// held-node set and the shared Stats counters.
//
// Every such effect is either commutative over a cycle (counters) or is
// staged in per-shard queues and applied at the barrier in ascending shard
// order — which, because shards are ascending ID ranges and each shard walks
// its routers in ascending order, replays the exact serial order. In
// particular the shards' arrival lists, concatenated in shard order, are the
// serial arrival list. Credit returns are order-sensitive *within* phase 4 in
// the serial stepper (a later router could observe a credit freed by an
// earlier one in the same cycle), so both paths defer them to an end-of-phase
// apply: serial and sharded execution see identical credit state at every
// read. Everything a phase reads (input buffers, own out-port credits/owners,
// round-robin pointers) is router-local and only written by barrier-separated
// phases, so shard-parallel execution computes exactly the serial result.
//
// Word-sharing rule. Within phases 3 and 4 a router's bit in the per-phase
// sets is written by whichever worker runs that router, and two bands of an
// 8×8 mesh would share one 64-bit word — a data race (go 1.22 has no atomic
// Or). So a band owns whole words: its window of vaSet/saSet starts on a word
// boundary and bit b of the window is router lo+b (initBands wires each
// router to its word).
type shardState struct {
	lo       int       // the band's first router; it runs to the next band's
	va, sa   []uint64  // this band's windows of Network.vaSet / saSet: bit 0 is router lo
	arrivals []arrival // flits that left this band's routers on a link last cycle

	scratch  allocScratch // this worker's allocator working memory
	credits  []int32      // phase-4 upstream credit returns (creditSlab indices)
	fops     []stagedFlightOp
	delivers []*Packet // packets ejected this cycle, awaiting noteDelivered
	stats    Stats     // phase-4 stat deltas, merged at the barrier
	moved    int
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

// Step phases as the barrier-wait metrics label them. phaseVC and phaseSA
// dispatch through runShardPhase; phaseLink has run serially since the
// arrival list replaced the per-link queues, so it never waits at a barrier —
// the name stays so the metric series set does not change.
const (
	phaseLink = iota
	phaseVC
	phaseSA
	numPhases
)

// parMinActive gates the parallel path per cycle: with fewer routers to
// allocate, the shards run one after the other on the calling goroutine. The
// phases stage their effects the same way either way, so the choice is
// invisible in the results — it only avoids paying barrier overhead on idle
// or draining networks.
const parMinActive = 24

// barrierSampleEvery is the sampling stride (in sharded cycles) for the
// barrier-wait observer; sampling keeps the clock reads off most cycles.
const barrierSampleEvery = 64

// barrierObserver, when set, receives sampled per-phase barrier wait times
// from every sharded network in the process (see SetBarrierObserver).
var barrierObserver atomic.Value // of func(phase int, waitNS int64)

// SetBarrierObserver installs a process-wide callback fed sampled per-phase
// barrier wait times (phase is 1=vc or 2=sa; 0=link no longer has a barrier).
// The service layer
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

// NumPhases is the number of phase labels (see PhaseName).
const NumPhases = numPhases

// initBands lays out the per-phase router sets and wires every router to
// its bit. A serial network is one band over one run of words; with
// cfg.Shards > 1 (clamped to Height) it also builds the row-band partition,
// each band with its own words and its own arrival list.
func (n *Network) initBands() {
	k := min(n.Cfg.Shards, n.Cfg.Height)
	if k <= 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	words := 0
	for s := 0; s < k; s++ {
		// Spread Height rows over k bands, remainder to the front bands.
		rows := n.Cfg.Height / k
		if s < n.Cfg.Height%k {
			rows++
		}
		bounds[s+1] = bounds[s] + rows*n.Cfg.Width
		words += (rows*n.Cfg.Width + 63) / 64
	}
	n.vaSet, n.saSet = make([]uint64, words), make([]uint64, words)
	off := 0
	for s := 0; s < k; s++ {
		lo, hi := bounds[s], bounds[s+1]
		end := off + (hi-lo+63)/64
		links := 0
		for _, r := range n.Routers[lo:hi] {
			w := off + (r.id-lo)>>6
			r.vaWord, r.saWord, r.bit = &n.vaSet[w], &n.saSet[w], 1<<uint((r.id-lo)&63)
			for i := range r.out {
				if r.out[i].to != noAlloc {
					links++
				}
			}
		}
		if k == 1 {
			n.arrivals = make([]arrival, 0, links)
		} else {
			sh := &shardState{
				lo: lo,
				va: n.vaSet[off:end], sa: n.saSet[off:end],
				arrivals: make([]arrival, 0, links),
			}
			for _, r := range n.Routers[lo:hi] {
				sh.scratch.fit(len(r.in), len(r.out), n.nvc)
			}
			n.shards = append(n.shards, sh)
		}
		off = end
	}
	if k > 1 {
		n.group = par.NewGroup()
		n.phaseFn = n.runShardPhase
	}
}

// Shards returns the effective shard count the network steps with (1 =
// serial).
func (n *Network) Shards() int {
	if len(n.shards) == 0 {
		return 1
	}
	return len(n.shards)
}

// runShardPhase executes the current phase over one shard's band. Invoked
// once per shard, concurrently via n.group or in turn by runPhase.
func (n *Network) runShardPhase(k int) {
	sh := n.shards[k]
	now := n.now
	if n.curPhase == phaseVC {
		n.allocVCs(sh.va, sh.lo, now, sh)
	} else { // phaseSA
		sh.moved = n.allocSwitches(sh.sa, sh.lo, now, sh)
	}
}

// runPhase runs one phase over every shard — across the pool when parallel —
// and accounts the barrier wait. The wait is read after every parallel phase
// and observed on sampled cycles, so a sample is one phase's wait.
func (n *Network) runPhase(phase int, parallel bool) {
	n.curPhase = phase
	if !parallel {
		for k := range n.shards {
			n.runShardPhase(k)
		}
		return
	}
	n.group.Run(len(n.shards), n.phaseFn)
	w := n.group.TakeWaitNS()
	if n.Stats.cycles%barrierSampleEvery == 0 {
		n.barrierWaitNS[phase] += w
		if fn, ok := barrierObserver.Load().(func(int, int64)); ok && fn != nil {
			fn(phase, w)
		}
	}
}

// BarrierWaitNS returns the cumulative sampled barrier wait for one phase
// (1=vc, 2=sa; always zero for 0=link) since the network was built. Samples
// are taken every barrierSampleEvery sharded cycles, so the value is an
// estimator of shard imbalance, not a total — compare runs, don't sum into
// wall time.
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

// stepSharded is Step's parallel path (Cfg.Shards > 1): the same phases over
// the same kernels, one band per shard. Phase effects that cross shard
// boundaries are staged per shard and applied in ascending shard order at
// each barrier; see the determinism argument at the top of the file.
func (n *Network) stepSharded() {
	now := n.now
	// 1. Deliver the flits that crossed a link last cycle: the shards' lists
	// in shard order are the serial list.
	for _, sh := range n.shards {
		n.deliver(sh.arrivals, now)
		sh.arrivals = sh.arrivals[:0]
	}
	// 2. NI injection streams flits into router input buffers (serial).
	n.stepNIs(now)
	// 3+4. Allocation phases.
	routers := 0
	for i, w := range n.vaSet {
		routers += bits.OnesCount64(w | n.saSet[i])
	}
	parallel := routers >= parMinActive
	n.runPhase(phaseVC, parallel)
	for _, sh := range n.shards {
		n.flushFlightOps(sh)
	}
	n.runPhase(phaseSA, parallel)
	moved := 0
	for _, sh := range n.shards {
		n.flushFlightOps(sh)
		for _, p := range sh.delivers {
			n.noteDelivered(p)
		}
		sh.delivers = sh.delivers[:0]
		n.applyCredits(sh.credits)
		sh.credits = sh.credits[:0]
		n.mergeShardStats(&sh.stats)
		moved += sh.moved
	}
	n.endCycle(moved)
}
