package gpu

import (
	"equinox/internal/hbm"
	"equinox/internal/workloads"
)

// CB is one shared last-level cache bank with its dedicated memory
// controller (Figure 1: each CB interfaces one HBM stack). It applies the
// backpressure chain at the heart of the paper: when the reply network
// cannot drain, pending replies back up, the CB stops consuming HBM
// completions and then stops accepting requests, which backs the request
// network up all the way to the PEs (the "parking lot" effect of §6.4).
type CB struct {
	Bank int
	L2   *Cache
	MC   *hbm.Controller

	mshr       MSHR[*Transaction]
	pendingOut []*Transaction // replies waiting for reply-network space
	maxPending int
	writebacks []uint64       // dirty-evicted lines awaiting the HBM write queue
	reqPool    []*hbm.Request // completed HBM requests, reused for later misses

	L2Hits     int64
	L2Misses   int64
	Writebacks int64
	StallOnOut int64
}

// maxWritebacks bounds the write-back queue so sustained write misses
// backpressure request processing rather than growing without bound.
const maxWritebacks = 64

// CBConfig sizes a cache bank.
type CBConfig struct {
	L2Bytes     int
	L2Ways      int
	MSHREntries int
	MaxPending  int // completed replies buffered toward the reply NI
	HBM         hbm.Config
}

// DefaultCBConfig matches Table 1 (2 MB per bank, FR-FCFS MCs).
func DefaultCBConfig() CBConfig {
	return CBConfig{
		L2Bytes:     2 * 1024 * 1024,
		L2Ways:      16,
		MSHREntries: 64,
		MaxPending:  4,
		HBM:         hbm.DefaultConfig(),
	}
}

// NewCB builds a cache bank with its memory controller.
func NewCB(bank int, cfg CBConfig) (*CB, error) {
	l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, workloads.LineBytes)
	if err != nil {
		return nil, err
	}
	mc, err := hbm.NewController(cfg.HBM)
	if err != nil {
		return nil, err
	}
	return &CB{
		Bank:       bank,
		L2:         l2,
		MC:         mc,
		mshr:       MSHR[*Transaction]{size: cfg.MSHREntries},
		maxPending: cfg.MaxPending,
	}, nil
}

// ProcessRequest handles one arriving request transaction. It returns false
// (and consumes nothing) when the bank must stall: reply buffer full, MSHR
// full, or memory controller queue full.
func (cb *CB) ProcessRequest(tx *Transaction, now int64) bool {
	if len(cb.pendingOut) >= cb.maxPending {
		cb.StallOnOut++
		return false
	}
	if tx.Write {
		// Write-back L2: the write allocates and dirties the line; the HBM
		// write happens when the dirty line is eventually evicted. The write
		// reply posts immediately.
		if len(cb.writebacks) >= maxWritebacks {
			return false
		}
		cb.fill(tx.Addr, true)
		cb.pendingOut = append(cb.pendingOut, tx)
		return true
	}
	// Read.
	if cb.L2.Probe(tx.Addr) {
		cb.fill(tx.Addr, false)
		cb.L2Hits++
		cb.pendingOut = append(cb.pendingOut, tx)
		return true
	}
	// Read miss: merge into an outstanding fetch, or allocate one. The
	// transaction waits in the MSHR until the fetch completes.
	if !cb.mshr.Merge(tx.Line, tx) {
		if cb.MC.QueueSpace() == 0 || !cb.mshr.Allocate(tx.Line, tx) {
			return false
		}
		cb.enqueue(hbm.Request{Addr: tx.Addr}, now)
	}
	cb.L2Misses++
	return true
}

// enqueue hands a request to the memory controller in a recycled Request
// struct; the caller has checked MC.QueueSpace.
func (cb *CB) enqueue(req hbm.Request, now int64) {
	var r *hbm.Request
	if k := len(cb.reqPool); k > 0 {
		r, cb.reqPool = cb.reqPool[k-1], cb.reqPool[:k-1]
	} else {
		r = new(hbm.Request)
	}
	*r = req
	cb.MC.Enqueue(r, now)
}

// fill updates the L2 and queues a write-back when a dirty line is evicted.
func (cb *CB) fill(addr uint64, markDirty bool) {
	_, evicted, dirty := cb.L2.Fill(addr, markDirty)
	if dirty {
		cb.writebacks = append(cb.writebacks, evicted)
		cb.Writebacks++
	}
}

// Step advances the memory controller one cycle and turns read completions
// into pending replies. The controller is frozen while the reply buffer is
// saturated, propagating backpressure into HBM timing. Queued write-backs
// drain into the controller as queue space allows.
func (cb *CB) Step(now int64) {
	// Drain write-backs (up to two per cycle, behind demand traffic).
	for k := 0; k < 2 && len(cb.writebacks) > 0 && cb.MC.QueueSpace() > 0; k++ {
		line := cb.writebacks[0]
		// Compact in place (here and in PopReply): a q = q[1:] pop strands
		// capacity behind the slice base, so every later append reallocates.
		cb.writebacks = cb.writebacks[:copy(cb.writebacks, cb.writebacks[1:])]
		cb.enqueue(hbm.Request{Addr: line * workloads.LineBytes, Write: true}, now)
	}
	if len(cb.pendingOut) >= cb.maxPending {
		cb.StallOnOut++
		return
	}
	// MC.Step's result is the controller's scratch, consumed here and not
	// retained; the completed requests themselves go back to the pool.
	for _, done := range cb.MC.Step(now) {
		cb.reqPool = append(cb.reqPool, done)
		if done.Write {
			continue // write-backs complete silently
		}
		cb.fill(done.Addr, false)
		cb.pendingOut = append(cb.pendingOut, cb.mshr.Complete(done.Addr/workloads.LineBytes)...)
	}
}

// PopReply removes the oldest reply-ready transaction, or nil.
func (cb *CB) PopReply() *Transaction {
	if len(cb.pendingOut) == 0 {
		return nil
	}
	tx := cb.pendingOut[0]
	cb.pendingOut = cb.pendingOut[:copy(cb.pendingOut, cb.pendingOut[1:])]
	return tx
}

// PeekReply returns the oldest reply-ready transaction without removing it.
func (cb *CB) PeekReply() *Transaction {
	if len(cb.pendingOut) == 0 {
		return nil
	}
	return cb.pendingOut[0]
}

// Drained reports whether the bank holds no in-flight work (pending
// write-backs don't block completion; they drain in the background).
func (cb *CB) Drained() bool {
	return len(cb.pendingOut) == 0 && cb.mshr.Outstanding() == 0 && cb.MC.Pending() == 0
}
