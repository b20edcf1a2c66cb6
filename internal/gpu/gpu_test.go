package gpu

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"equinox/internal/workloads"
)

func TestCacheBasics(t *testing.T) {
	c, err := NewCache(1024, 2, 128) // 8 lines, 4 sets × 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Probe(0) || c.Probe(128) {
		t.Error("probe wrong")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hit/miss accounting %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := NewCache(1024, 2, 128) // 4 sets × 2 ways
	// Three lines mapping to set 0: lines 0, 4, 8 (line % 4 == 0).
	a, b, d := uint64(0), uint64(4*128), uint64(8*128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a becomes MRU
	c.Access(d) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line not evicted")
	}
	if !c.Probe(d) {
		t.Error("new line not resident")
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewCache(0, 2, 128); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewCache(128, 4, 128); err == nil {
		t.Error("capacity below ways accepted")
	}
}

func TestCacheHitRateProperty(t *testing.T) {
	// Repeating a working set smaller than capacity must converge to ~100%.
	c, _ := NewCache(16*1024, 4, 128) // 128 lines
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 64; i++ {
			c.Access(uint64(i * 128))
		}
	}
	if hr := float64(c.Hits) / float64(c.Hits+c.Misses); hr < 0.7 {
		t.Errorf("small working set hit rate %f < 0.7", hr)
	}
	// A working set much larger than capacity accessed randomly must miss
	// most of the time.
	c2, _ := NewCache(16*1024, 4, 128)
	for i := 0; i < 10000; i++ {
		c2.Access(uint64((i * 7919 % 100000) * 128))
	}
	if hr := float64(c2.Hits) / float64(c2.Hits+c2.Misses); hr > 0.3 {
		t.Errorf("thrashing hit rate %f > 0.3", hr)
	}
}

func TestCacheAccessAlwaysFills(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, _ := NewCache(4096, 2, 128)
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Probe(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeAndComplete(t *testing.T) {
	m := MSHR[string]{size: 2}
	if !m.Allocate(10, "a") {
		t.Fatal("allocate failed")
	}
	if !m.Merge(10, "b") {
		t.Error("merge failed")
	}
	if m.Merge(11, "c") {
		t.Error("merge on absent line succeeded")
	}
	m.Allocate(11, "c")
	if m.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", m.Outstanding())
	}
	if m.Allocate(12, "d") {
		t.Error("allocate beyond capacity succeeded")
	}
	// A merge takes no entry, so it succeeds on a full file.
	if !m.Merge(10, "e") {
		t.Error("merge into a full file failed")
	}
	if ws := m.Complete(10); !reflect.DeepEqual(ws, []string{"a", "b", "e"}) {
		t.Errorf("completed waiters %q, want [a b e]", ws)
	}
	if m.Outstanding() != 1 {
		t.Errorf("outstanding = %d, want 1", m.Outstanding())
	}
	if ws := m.Complete(12); ws != nil {
		t.Errorf("completing an absent line returned %q", ws)
	}
}

// TestMSHRMatchesMap drives the fixed table and the map it replaced with the
// same random operations: every result, and every completed waiter list in
// order, must agree. Allocate is called as its contract allows, for a line
// with no entry (a primary miss); a line with one takes Merge.
func TestMSHRMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const size = 6
	m := MSHR[int]{size: size}
	ref := map[uint64][]int{}
	for i := 0; i < 20000; i++ {
		line := uint64(rng.Intn(10))
		switch op := rng.Intn(3); op {
		case 0:
			if _, had := ref[line]; had {
				break
			}
			want := len(ref) < size
			if want {
				ref[line] = []int{i}
			}
			if got := m.Allocate(line, i); got != want {
				t.Fatalf("op %d: Allocate(%d) = %v, want %v", i, line, got, want)
			}
		case 1:
			_, want := ref[line]
			if want {
				ref[line] = append(ref[line], i)
			}
			if got := m.Merge(line, i); got != want {
				t.Fatalf("op %d: Merge(%d) = %v, want %v", i, line, got, want)
			}
		case 2:
			want := ref[line]
			delete(ref, line)
			if got := m.Complete(line); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Complete(%d) = %v, want %v", i, line, got, want)
			}
		}
		if m.Outstanding() != len(ref) {
			t.Fatalf("op %d: %d outstanding, want %d", i, m.Outstanding(), len(ref))
		}
	}
}

func TestPERunsToCompletion(t *testing.T) {
	p, _ := workloads.ByName("hotspot")
	gen := p.NewGenerator(0, 300, 1)
	pe, err := NewPE(0, DefaultPEConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	// Immediate-completion memory system.
	var inFlight []*Transaction
	for cycle := 0; cycle < 20000 && !pe.Finished(); cycle++ {
		pe.Step(func(tx *Transaction) bool {
			inFlight = append(inFlight, tx)
			return true
		})
		// Replies return after a fixed delay of one batch.
		for _, tx := range inFlight {
			pe.Complete(tx.Line)
		}
		inFlight = inFlight[:0]
	}
	if !pe.Finished() {
		t.Fatalf("PE did not finish; outstanding=%d", pe.outstanding)
	}
	if pe.Instructions != 300 {
		t.Errorf("retired %d instructions, want 300", pe.Instructions)
	}
}

func TestPEBackpressureStalls(t *testing.T) {
	p, _ := workloads.ByName("kmeans")
	gen := p.NewGenerator(0, 400, 2)
	pe, _ := NewPE(0, DefaultPEConfig(), gen)
	// Network that never accepts: PE must stall, not lose transactions.
	for cycle := 0; cycle < 2000; cycle++ {
		pe.Step(func(*Transaction) bool { return false })
	}
	if pe.Finished() {
		t.Error("PE finished despite dead network")
	}
	if pe.StallCycles == 0 {
		t.Error("no stall cycles recorded")
	}
	if pe.outstanding != 0 {
		t.Errorf("outstanding=%d with dead network", pe.outstanding)
	}
}

func TestPEMSHRLimitsOutstanding(t *testing.T) {
	p := workloads.Profile{
		Name: "synthetic", MemRatio: 1.0, ReadFrac: 1.0, FootprintLines: 100000,
		SharedFrac: 0, SeqProb: 0, StrideLines: 1, Burstiness: 0.9,
		ComputeGap: 1, Instructions: 10000,
	}
	gen := p.NewGenerator(0, 10000, 3)
	cfg := DefaultPEConfig()
	cfg.MaxOutstanding = 8
	pe, _ := NewPE(0, cfg, gen)
	maxSeen := 0
	for cycle := 0; cycle < 5000; cycle++ {
		pe.Step(func(tx *Transaction) bool { return true }) // never complete
		if pe.outstanding > maxSeen {
			maxSeen = pe.outstanding
		}
	}
	if maxSeen > 8 {
		t.Errorf("outstanding reached %d, cap 8", maxSeen)
	}
	if maxSeen < 8 {
		t.Errorf("outstanding never reached the cap (max %d)", maxSeen)
	}
}

func TestCBReadHitFlow(t *testing.T) {
	cb, err := NewCB(0, DefaultCBConfig())
	if err != nil {
		t.Fatal(err)
	}
	tx := &Transaction{PE: 1, Addr: 0x1000, Line: 0x1000 / 128}
	// First access misses to HBM.
	if !cb.ProcessRequest(tx, 0) {
		t.Fatal("request rejected")
	}
	if cb.L2Misses != 1 {
		t.Errorf("expected 1 miss, got %d", cb.L2Misses)
	}
	var reply *Transaction
	for now := int64(0); now < 500 && reply == nil; now++ {
		cb.Step(now)
		reply = cb.PopReply()
	}
	if reply == nil {
		t.Fatal("no reply from HBM path")
	}
	if reply.PE != 1 {
		t.Errorf("reply for wrong PE %d", reply.PE)
	}
	// Second access to the same line hits in L2.
	tx2 := &Transaction{PE: 2, Addr: 0x1000, Line: 0x1000 / 128}
	if !cb.ProcessRequest(tx2, 600) {
		t.Fatal("second request rejected")
	}
	if cb.L2Hits != 1 {
		t.Errorf("expected 1 hit, got %d", cb.L2Hits)
	}
	if r := cb.PopReply(); r == nil || r.PE != 2 {
		t.Error("hit reply missing")
	}
}

func TestCBMSHRMergesSameLine(t *testing.T) {
	cb, _ := NewCB(0, DefaultCBConfig())
	a := &Transaction{PE: 1, Addr: 0x2000, Line: 0x2000 / 128}
	b := &Transaction{PE: 2, Addr: 0x2000, Line: 0x2000 / 128}
	cb.ProcessRequest(a, 0)
	cb.ProcessRequest(b, 0)
	if cb.MC.Pending() != 1 {
		t.Errorf("expected 1 HBM request after merge, got %d", cb.MC.Pending())
	}
	got := 0
	for now := int64(0); now < 500; now++ {
		cb.Step(now)
		for cb.PopReply() != nil {
			got++
		}
	}
	if got != 2 {
		t.Errorf("got %d replies, want 2 (both merged waiters)", got)
	}
}

func TestCBWritePostedReply(t *testing.T) {
	cb, _ := NewCB(0, DefaultCBConfig())
	tx := &Transaction{PE: 3, Addr: 0x3000, Write: true, Line: 0x3000 / 128}
	if !cb.ProcessRequest(tx, 0) {
		t.Fatal("write rejected")
	}
	if r := cb.PopReply(); r == nil || !r.Write {
		t.Error("posted write reply missing")
	}
}

func TestCBBackpressureWhenRepliesNotDrained(t *testing.T) {
	cfg := DefaultCBConfig()
	cfg.MaxPending = 2
	cb, _ := NewCB(0, cfg)
	accepted := 0
	for i := 0; i < 10; i++ {
		// L2 hits (write allocate first access? use writes: immediate reply)
		tx := &Transaction{PE: i, Addr: 0x100, Write: true, Line: 2}
		if cb.ProcessRequest(tx, int64(i)) {
			accepted++
		}
	}
	if accepted > 2 {
		t.Errorf("accepted %d requests with MaxPending=2 and no draining", accepted)
	}
	if cb.StallOnOut == 0 {
		t.Error("no output stalls recorded")
	}
}

func TestCBDrained(t *testing.T) {
	cb, _ := NewCB(0, DefaultCBConfig())
	if !cb.Drained() {
		t.Error("fresh CB not drained")
	}
	cb.ProcessRequest(&Transaction{PE: 0, Addr: 0x40, Line: 0}, 0)
	if cb.Drained() {
		t.Error("CB with in-flight read reported drained")
	}
	for now := int64(0); now < 500 && !cb.Drained(); now++ {
		cb.Step(now)
		cb.PopReply()
	}
	if !cb.Drained() {
		t.Error("CB never drained")
	}
}

func TestCacheWriteBackDirtyEviction(t *testing.T) {
	c, _ := NewCache(512, 2, 128) // 4 lines: 2 sets × 2 ways
	// Lines 0 and 2 map to set 0 (line%2); write both, then a third forces a
	// dirty eviction.
	if hit, _, _ := c.Fill(0, true); hit {
		t.Fatal("cold write hit")
	}
	c.Fill(2*128, true)
	_, evicted, dirty := c.Fill(4*128, false)
	if !dirty {
		t.Fatal("dirty LRU eviction not reported")
	}
	if evicted != 0 {
		t.Fatalf("evicted line %d, want 0 (LRU)", evicted)
	}
	if c.DirtyEvicts != 1 || c.Evictions != 1 {
		t.Errorf("eviction accounting: %d/%d", c.DirtyEvicts, c.Evictions)
	}
}

func TestCacheCleanEviction(t *testing.T) {
	c, _ := NewCache(512, 2, 128)
	c.Fill(0, false)
	c.Fill(2*128, false)
	_, _, dirty := c.Fill(4*128, false)
	if dirty {
		t.Error("clean eviction flagged dirty")
	}
}

func TestCacheDirtyBitFollowsLRU(t *testing.T) {
	c, _ := NewCache(512, 2, 128)
	c.Fill(0, true)      // line 0 dirty
	c.Fill(2*128, false) // line 2 clean
	c.Fill(0, false)     // touch line 0 (stays dirty, moves to MRU)
	_, evicted, dirty := c.Fill(4*128, false)
	if evicted != 2 || dirty {
		t.Errorf("expected clean eviction of line 2, got line %d dirty=%v", evicted, dirty)
	}
}

func TestCBWriteBackFlow(t *testing.T) {
	cfg := DefaultCBConfig()
	cfg.L2Bytes = 4096 // tiny L2: 32 lines, forces evictions
	cfg.L2Ways = 2
	cb, _ := NewCB(0, cfg)
	// Stream of writes across many lines: dirty evictions must reach HBM as
	// writes without blocking forward progress.
	accepted := 0
	var now int64
	for i := 0; i < 400; i++ {
		tx := &Transaction{PE: 1, Addr: uint64(i * 128 * 3), Write: true, Line: uint64(i * 3)}
		if cb.ProcessRequest(tx, now) {
			accepted++
		}
		cb.Step(now)
		for cb.PopReply() != nil {
		}
		now++
	}
	if cb.Writebacks == 0 {
		t.Fatal("no write-backs generated")
	}
	if accepted < 300 {
		t.Errorf("only %d/400 writes accepted", accepted)
	}
	// Drain.
	for ; now < 5000 && !cb.Drained(); now++ {
		cb.Step(now)
		for cb.PopReply() != nil {
		}
	}
	if !cb.Drained() {
		t.Error("bank never drained")
	}
}

func TestCBAccessors(t *testing.T) {
	cb, _ := NewCB(0, DefaultCBConfig())
	if cb.PeekReply() != nil {
		t.Error("fresh CB has pending reply")
	}
	if cb.L2Hits != 0 || cb.L2Misses != 0 {
		t.Error("fresh CB counted L2 reads")
	}
	cb.ProcessRequest(&Transaction{PE: 1, Addr: 0x80, Write: true, Line: 1}, 0)
	if cb.PeekReply() == nil {
		t.Error("write reply not peekable")
	}
	cb.ProcessRequest(&Transaction{PE: 1, Addr: 0x80, Line: 1}, 1)
	if cb.L2Hits != 1 || cb.L2Misses != 0 {
		t.Errorf("%d L2 hits, %d misses after one read hit", cb.L2Hits, cb.L2Misses)
	}
}
