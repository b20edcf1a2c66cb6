package gpu

import (
	"equinox/internal/workloads"
)

// Transaction is one cache-line memory transaction travelling PE→CB→PE.
type Transaction struct {
	PE        int
	Addr      uint64
	Write     bool
	Line      uint64
	Dependent bool // a consumer blocks on this load's data
}

// TxPool recycles Transactions. A system shares one between its PEs, which
// draw a Transaction per L1 miss, and its reply endpoint, which puts each back
// once PE.Complete has retired it — nothing reads a transaction after that. A
// nil pool allocates. Not safe for concurrent use.
type TxPool struct {
	free []*Transaction
}

func (p *TxPool) get() *Transaction {
	if p == nil || len(p.free) == 0 {
		return new(Transaction)
	}
	tx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return tx
}

// Put returns a retired transaction to the pool.
func (p *TxPool) Put(tx *Transaction) { p.free = append(p.free, tx) }

// PE models one processing element (an SM): an in-order issue engine with a
// private L1, an MSHR file, and a bound on outstanding memory transactions.
// GPUs tolerate latency through outstanding-request parallelism, so memory
// instructions are fire-and-forget up to the MSHR bound; the PE finishes
// when its instruction budget is spent and all transactions returned.
type PE struct {
	ID  int
	L1  *Cache
	Txs *TxPool // source of the PE's Transactions; nil allocates each one
	gen *workloads.Generator

	mshr           MSHR
	maxOutstanding int
	outstanding    int

	gapLeft   int
	stalledTx *Transaction // L1-missed transaction awaiting network space
	depWait   bool         // blocked on a dependent load
	depLine   uint64

	Instructions int64 // retired instructions (compute + memory)
	L1HitsFast   int64 // memory instructions satisfied locally
	StallCycles  int64 // cycles blocked on MSHR or injection backpressure
	DepStalls    int64 // cycles blocked waiting for a dependent load's data
}

// PEConfig sizes a PE.
type PEConfig struct {
	L1Bytes        int
	L1Ways         int
	LineBytes      int
	MSHREntries    int
	MaxOutstanding int
}

// DefaultPEConfig matches Table 1 (16 KB L1 per PE).
func DefaultPEConfig() PEConfig {
	return PEConfig{
		L1Bytes:        16 * 1024,
		L1Ways:         4,
		LineBytes:      workloads.LineBytes,
		MSHREntries:    24,
		MaxOutstanding: 24,
	}
}

// NewPE builds a PE running the given generator.
func NewPE(id int, cfg PEConfig, gen *workloads.Generator) (*PE, error) {
	l1, err := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	return &PE{
		ID:             id,
		L1:             l1,
		gen:            gen,
		mshr:           *NewMSHR(cfg.MSHREntries),
		maxOutstanding: cfg.MaxOutstanding,
	}, nil
}

// Finished reports whether the PE has retired its whole budget and drained
// all outstanding transactions.
func (pe *PE) Finished() bool {
	return pe.gen.Done() && pe.outstanding == 0 && pe.stalledTx == nil
}

// Outstanding returns in-flight memory transactions.
func (pe *PE) Outstanding() int { return pe.outstanding }

// Step advances the PE by one cycle. inject is called for transactions that
// must enter the request network; returning false applies backpressure and
// the PE retries next cycle.
func (pe *PE) Step(inject func(*Transaction) bool) {
	// A dependent consumer is waiting for loaded data: the PE cannot issue
	// past it (real warps block on uses of outstanding loads).
	if pe.depWait {
		pe.DepStalls++
		return
	}
	// Retry a transaction stalled on MSHR or injection backpressure. No new
	// instructions issue while one is held, so the line cannot have gained
	// an MSHR entry in the meantime.
	if pe.stalledTx != nil {
		if pe.outstanding >= pe.maxOutstanding || pe.mshr.Full() {
			pe.StallCycles++
			return
		}
		if !inject(pe.stalledTx) {
			pe.StallCycles++
			return
		}
		pe.mshr.Allocate(pe.stalledTx.Line, struct{}{})
		pe.outstanding++
		if pe.stalledTx.Dependent {
			pe.depWait, pe.depLine = true, pe.stalledTx.Line
		}
		pe.stalledTx = nil
		return
	}
	if pe.gapLeft > 0 {
		pe.gapLeft--
		return
	}
	if pe.gen.Done() {
		return
	}
	op := pe.gen.Next()
	pe.Instructions++
	if !op.IsMem {
		return // one compute instruction per cycle
	}
	pe.gapLeft = op.Gap
	line := op.Addr / uint64(workloads.LineBytes)
	if pe.L1.Access(op.Addr) {
		pe.L1HitsFast++
		return
	}
	// L1 miss: merge into an outstanding fetch when possible.
	if pe.mshr.Lookup(line) {
		pe.mshr.Merge(line, struct{}{})
		pe.outstanding++
		if op.Dependent {
			pe.depWait, pe.depLine = true, line
		}
		return
	}
	tx := pe.Txs.get()
	*tx = Transaction{PE: pe.ID, Addr: op.Addr, Write: op.Write, Line: line, Dependent: op.Dependent}
	if pe.mshr.Full() || pe.outstanding >= pe.maxOutstanding || !inject(tx) {
		// Hold the transaction; retry next cycles. The MSHR entry is only
		// allocated once the request actually enters the network.
		pe.stalledTx = tx
		pe.StallCycles++
		return
	}
	pe.mshr.Allocate(line, struct{}{})
	pe.outstanding++
	if op.Dependent {
		pe.depWait, pe.depLine = true, line
	}
}

// Complete delivers a returning reply for a line; all merged waiters retire
// and a dependent consumer blocked on the line resumes.
func (pe *PE) Complete(line uint64) {
	if pe.depWait && pe.depLine == line {
		pe.depWait = false
	}
	ws := pe.mshr.Complete(line)
	n := len(ws)
	if n == 0 {
		n = 1 // reply for a stalled-then-injected line with no MSHR entry
	}
	pe.outstanding -= n
	if pe.outstanding < 0 {
		pe.outstanding = 0
	}
}
