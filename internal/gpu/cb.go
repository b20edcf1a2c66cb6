package gpu

import (
	"equinox/internal/hbm"
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

	mshr       MSHR
	pendingOut []*Transaction // replies waiting for reply-network space
	maxPending int
	writebacks []uint64       // dirty-evicted lines awaiting the HBM write queue
	reqPool    []*hbm.Request // completed HBM requests, reused for later misses

	Requests   int64
	L2Hits     int64
	L2Misses   int64
	Writes     int64
	Writebacks int64
	StallOnMC  int64
	StallOnOut int64
}

// CBConfig sizes a cache bank.
type CBConfig struct {
	L2Bytes     int
	L2Ways      int
	LineBytes   int
	MSHREntries int
	MaxPending  int // completed replies buffered toward the reply NI
	HBM         hbm.Config
}

// DefaultCBConfig matches Table 1 (2 MB per bank, FR-FCFS MCs).
func DefaultCBConfig() CBConfig {
	return CBConfig{
		L2Bytes:     2 * 1024 * 1024,
		L2Ways:      16,
		LineBytes:   128,
		MSHREntries: 64,
		MaxPending:  4,
		HBM:         hbm.DefaultConfig(),
	}
}

// NewCB builds a cache bank with its memory controller.
func NewCB(bank int, cfg CBConfig) (*CB, error) {
	l2, err := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
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
		mshr:       *NewMSHR(cfg.MSHREntries),
		maxPending: cfg.MaxPending,
	}, nil
}

// CanAccept reports whether the bank can take another request this cycle.
func (cb *CB) CanAccept() bool {
	return len(cb.pendingOut) < cb.maxPending
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
		if len(cb.writebacks) >= cb.maxWritebacks() {
			cb.StallOnMC++
			return false
		}
		cb.fill(tx.Addr, true)
		cb.Requests++
		cb.Writes++
		cb.pendingOut = append(cb.pendingOut, tx)
		return true
	}
	// Read.
	if cb.L2.Probe(tx.Addr) {
		cb.fill(tx.Addr, false)
		cb.Requests++
		cb.L2Hits++
		cb.pendingOut = append(cb.pendingOut, tx)
		return true
	}
	// Read miss: merge or allocate a fetch.
	if cb.mshr.Lookup(tx.Line) {
		cb.mshr.Merge(tx.Line, tx)
		cb.Requests++
		cb.L2Misses++
		return true
	}
	if cb.mshr.Full() || cb.MC.QueueSpace() == 0 {
		cb.StallOnMC++
		return false
	}
	cb.mshr.Allocate(tx.Line, tx)
	// The primary-miss transaction rides along as the payload (a pointer
	// boxes without allocating, unlike the line number); it waits in the
	// MSHR until the fetch completes.
	cb.enqueue(hbm.Request{Addr: tx.Addr, Payload: tx}, now)
	cb.Requests++
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

// maxWritebacks bounds the write-back queue so sustained write misses
// backpressure request processing rather than growing without bound.
func (cb *CB) maxWritebacks() int { return 64 }

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
		cb.enqueue(hbm.Request{Addr: line * uint64(cb.L2.LineBytes()), Write: true}, now)
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
		for _, w := range cb.mshr.Complete(done.Payload.(*Transaction).Line) {
			cb.pendingOut = append(cb.pendingOut, w.(*Transaction))
		}
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

// L2HitRate returns the read hit rate observed by the bank.
func (cb *CB) L2HitRate() float64 {
	t := cb.L2Hits + cb.L2Misses
	if t == 0 {
		return 0
	}
	return float64(cb.L2Hits) / float64(t)
}
