package gpu

import (
	"math/rand"
	"testing"

	"equinox/internal/workloads"
)

// inFlight is a message in a loopback line, due at cycle at.
type inFlight struct {
	at int64
	tx *Transaction
}

// due removes and passes to deliver each message of q due by now, in the
// order they were sent, until deliver refuses one; that one and the rest
// stay.
func due(q []inFlight, now int64, deliver func(*Transaction) bool) []inFlight {
	w := 0
	for i, m := range q {
		if m.at > now {
			q[w] = m
			w++
			continue
		}
		if !deliver(m.tx) {
			w += copy(q[w:], q[i:])
			break
		}
	}
	return q[:w]
}

// checkMSHR fails the test unless every line of m holds one entry with at
// least one waiter and m holds no more entries than its size; it returns
// the number of waiters.
func checkMSHR[W any](t *testing.T, cycle int64, what string, m *MSHR[W]) int {
	t.Helper()
	if len(m.entries) > m.size {
		t.Fatalf("cycle %d: %s MSHR holds %d entries, size %d", cycle, what, len(m.entries), m.size)
	}
	waiters := 0
	for i, e := range m.entries {
		for _, f := range m.entries[:i] {
			if f.line == e.line {
				t.Fatalf("cycle %d: %s MSHR holds two entries for line %d", cycle, what, e.line)
			}
		}
		if len(e.waiters) == 0 {
			t.Fatalf("cycle %d: %s MSHR entry for line %d has no waiter", cycle, what, e.line)
		}
		waiters += len(e.waiters)
	}
	return waiters
}

// TestEndpointInvariants drives three PEs and one cache bank through a
// loopback that delays every request and reply by a random number of cycles
// (so replies return out of order) and refuses traffic at random, with the
// caches, MSHR files, reply buffer and HBM queue sized so that misses merge
// in both files and both endpoints stall. After every cycle:
//   - each PE's outstanding count equals its MSHR's waiters;
//   - no MSHR holds two entries for one line, nor more entries than its
//     size: a fetch is allocated only for a line without one, so a PE's
//     file fills only once its outstanding count has reached the miss bound;
//   - every transaction sent is in exactly one place: a loopback line, the
//     bank's MSHR or its reply buffer;
//
// and every reply finds its line's entry at the PE. At the end every PE has
// finished and the bank has drained, so every HBM completion found its entry
// too.
func TestEndpointInvariants(t *testing.T) {
	prof := workloads.Profile{
		Name: "churn", MemRatio: 0.9, ReadFrac: 0.8, FootprintLines: 48,
		SharedFrac: 0.7, SeqProb: 0.2, StrideLines: 1, Burstiness: 0.6,
		ComputeGap: 1, DependentFrac: 0.2, DivergenceFrac: 0.3, Instructions: 1,
	}
	// An 8-line L1 drops lines while their fetch is out, so a later miss
	// merges; a 32-line L2 misses and writes back.
	peCfg := PEConfig{L1Bytes: 1024, L1Ways: 2, MaxOutstanding: 6}
	cbCfg := DefaultCBConfig()
	cbCfg.L2Bytes, cbCfg.L2Ways = 4096, 2
	cbCfg.MSHREntries, cbCfg.MaxPending, cbCfg.HBM.QueueDepth = 4, 2, 4

	const instructions = 3000
	pes := make([]*PE, 3)
	for i := range pes {
		pe, err := NewPE(i, peCfg, prof.NewGenerator(i, instructions, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		pes[i] = pe
	}
	cb, err := NewCB(0, cbCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	delay := func(now int64) int64 { return now + 1 + rng.Int63n(40) }

	var reqs, reps []inFlight
	sent := map[*Transaction]bool{} // sent and not yet answered
	var now, refused, peMerges, cbMerges int64
	inject := func(tx *Transaction) bool {
		if rng.Intn(4) == 0 {
			return false
		}
		if sent[tx] {
			t.Fatalf("cycle %d: transaction for line %d sent twice", now, tx.Line)
		}
		sent[tx] = true
		reqs = append(reqs, inFlight{delay(now), tx})
		return true
	}
	reply := func(tx *Transaction) bool {
		if !sent[tx] {
			t.Fatalf("cycle %d: reply for a transaction not in flight (line %d)", now, tx.Line)
		}
		delete(sent, tx)
		pe := pes[tx.PE]
		e := pe.mshr.find(tx.Line)
		if e == nil {
			t.Fatalf("cycle %d: reply for line %d finds no entry at PE %d", now, tx.Line, tx.PE)
		}
		peMerges += int64(len(e.waiters) - 1)
		pe.Complete(tx.Line)
		return true
	}
	request := func(tx *Transaction) bool {
		if !cb.ProcessRequest(tx, now) {
			refused++
			return false
		}
		return true
	}

	for ; ; now++ {
		if now > 200*instructions {
			t.Fatalf("no progress: %d requests and %d replies in flight", len(reqs), len(reps))
		}
		reps = due(reps, now, reply)
		reqs = due(reqs, now, request)
		cb.Step(now)
		for tx := cb.PeekReply(); tx != nil && rng.Intn(3) != 0; tx = cb.PeekReply() {
			reps = append(reps, inFlight{delay(now), cb.PopReply()})
		}
		done := cb.Drained()
		for _, pe := range pes {
			pe.Step(inject)
			if w := checkMSHR(t, now, "PE", &pe.mshr); w != pe.outstanding {
				t.Fatalf("cycle %d: PE %d counts %d outstanding, its MSHR holds %d waiters", now, pe.ID, pe.outstanding, w)
			}
			done = done && pe.Finished()
		}
		held := checkMSHR(t, now, "bank", &cb.mshr)
		cbMerges = max(cbMerges, int64(held-cb.mshr.Outstanding()))
		if n := len(reqs) + held + len(cb.pendingOut) + len(reps); n != len(sent) {
			t.Fatalf("cycle %d: %d transactions in flight, %d in the loopback and the bank", now, len(sent), n)
		}
		if done && len(reqs) == 0 && len(reps) == 0 {
			break
		}
	}
	stalls := int64(0)
	for _, pe := range pes {
		if pe.Instructions < instructions { // divergent bursts retire extra ones
			t.Errorf("PE %d retired %d instructions, want at least %d", pe.ID, pe.Instructions, instructions)
		}
		stalls += pe.StallCycles
	}
	if peMerges == 0 || cbMerges == 0 || stalls == 0 || refused == 0 || cb.StallOnOut == 0 || cb.Writebacks == 0 {
		t.Errorf("degenerate run: %d PE merges, %d bank merges at most at once, %d PE stall cycles, %d bank refusals (%d on a full reply buffer), %d write-backs",
			peMerges, cbMerges, stalls, refused, cb.StallOnOut, cb.Writebacks)
	}
}

// TestEndpointsDoNotAllocate pins that MSHR files recycle their entries:
// once every slot has been used, a PE and a bank going through issue, merge
// and complete allocate nothing.
func TestEndpointsDoNotAllocate(t *testing.T) {
	t.Run("PE", func(t *testing.T) {
		// A one-line L1 over four lines: the next access to a line whose
		// fetch is out misses the L1 and merges.
		prof := workloads.Profile{
			Name: "pingpong", MemRatio: 1, ReadFrac: 1, FootprintLines: 4,
			StrideLines: 1, Burstiness: 0.9, Instructions: 1,
		}
		pe, err := NewPE(0, PEConfig{L1Bytes: 128, L1Ways: 1, MaxOutstanding: 4}, prof.NewGenerator(0, 1<<30, 1))
		if err != nil {
			t.Fatal(err)
		}
		pe.Txs = &TxPool{}
		// Each request is answered three cycles after it is sent.
		out := make([]inFlight, 0, 8)
		var now int64
		inject := func(tx *Transaction) bool {
			out = append(out, inFlight{now + 3, tx})
			return true
		}
		var issued, merged int
		reply := func(tx *Transaction) bool {
			merged += len(pe.mshr.find(tx.Line).waiters) - 1
			issued++
			pe.Complete(tx.Line)
			pe.Txs.Put(tx)
			return true
		}
		run := func() {
			for end := now + 1000; now < end; now++ {
				out = due(out, now, reply)
				pe.Step(inject)
			}
		}
		run() // warm-up: allocates the MSHR slab and fills the transaction pool
		issued, merged = 0, 0
		if a := testing.AllocsPerRun(1, run); a != 0 {
			t.Errorf("a warm PE allocates %v objects per 1 000 cycles, want 0", a)
		}
		if issued == 0 || merged == 0 {
			t.Errorf("degenerate run: %d fetches, %d merged misses", issued, merged)
		}
	})
	t.Run("CB", func(t *testing.T) {
		// Two reads per line over twice as many lines as the MSHR has
		// entries: the first read misses in the 32-line L2 and allocates
		// a fetch, the second merges into it.
		cfg := DefaultCBConfig()
		cfg.L2Bytes, cfg.L2Ways = 4096, 2
		cb, err := NewCB(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		txs := make([]Transaction, 4*cfg.MSHREntries)
		for i := range txs {
			line := uint64(i / 2)
			txs[i] = Transaction{PE: i, Addr: line * workloads.LineBytes, Line: line}
		}
		var now int64
		var replies int
		used := 0 // most MSHR entries in use at once
		run := func() {
			for i := 0; i < len(txs) || !cb.Drained(); now++ {
				for i < len(txs) && cb.ProcessRequest(&txs[i], now) {
					i++
				}
				used = max(used, cb.mshr.Outstanding())
				cb.Step(now)
				for cb.PopReply() != nil {
					replies++
				}
			}
		}
		run()
		if used != cfg.MSHREntries {
			t.Fatalf("warm-up used %d of %d MSHR entries", used, cfg.MSHREntries)
		}
		replies = 0
		misses, hits := cb.L2Misses, cb.L2Hits
		if a := testing.AllocsPerRun(1, run); a != 0 {
			t.Errorf("a warm bank allocates %v objects per %d reads, want 0", a, len(txs))
		}
		// AllocsPerRun runs twice: a warm-up call, then the measured one.
		if replies != 2*len(txs) || cb.L2Hits != hits || cb.L2Misses-misses != int64(2*len(txs)) {
			t.Errorf("%d replies, %d hits and %d misses over two runs of %d reads, want every read a miss and answered",
				replies, cb.L2Hits-hits, cb.L2Misses-misses, len(txs))
		}
	})
}
