package hbm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels accepted")
	}
	bad2 := DefaultConfig()
	bad2.TBurst = 0
	if bad2.Validate() == nil {
		t.Error("zero burst accepted")
	}
	bad3 := DefaultConfig()
	bad3.RowBytes = 64
	bad3.LineBytes = 128
	if bad3.Validate() == nil {
		t.Error("row smaller than line accepted")
	}
}

func TestPeakBandwidthMatchesPaper(t *testing.T) {
	// 256 GB/s per stack at 1.126 GHz core clock ≈ 227 B/cycle.
	bpc := DefaultConfig().PeakBytesPerCycle()
	if bpc < 200 || bpc > 260 {
		t.Errorf("peak %f B/cycle outside HBM2 stack range", bpc)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	c, err := NewController(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := &Request{Addr: 0x1000}
	if !c.Enqueue(r, 0) {
		t.Fatal("enqueue refused")
	}
	var done []*Request
	for now := int64(0); now < 200 && len(done) == 0; now++ {
		done = c.Step(now)
	}
	if len(done) != 1 {
		t.Fatal("request did not complete")
	}
	cfg := DefaultConfig()
	min := int64(cfg.TCAS + cfg.TBurst)
	max := int64(cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst + 2)
	if lat := done[0].doneAt - done[0].arrived; lat < min || lat > max {
		t.Errorf("cold access latency %d outside [%d,%d]", lat, min, max)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	// Two sequential lines in the same row: second should be a row hit.
	a := &Request{Addr: 0}
	cfg := DefaultConfig()
	// Same channel+bank+row: stride by channels*banks lines.
	stride := uint64(cfg.Channels * cfg.BanksPerChannel * cfg.LineBytes)
	_ = stride
	b := &Request{Addr: uint64(cfg.Channels*cfg.BanksPerChannel) * uint64(cfg.LineBytes)}
	c.Enqueue(a, 0)
	var doneA *Request
	now := int64(0)
	for ; doneA == nil && now < 500; now++ {
		for _, d := range c.Step(now) {
			doneA = d
		}
	}
	c.Enqueue(b, now)
	var doneB *Request
	for ; doneB == nil && now < 1000; now++ {
		for _, d := range c.Step(now) {
			doneB = d
		}
	}
	if doneB == nil {
		t.Fatal("second request did not complete")
	}
	latA := doneA.doneAt - doneA.arrived
	latB := doneB.doneAt - doneB.arrived
	if latB >= latA {
		t.Errorf("row hit latency %d not below cold latency %d", latB, latA)
	}
	if c.RowHits != 1 || c.RowMisses != 1 {
		t.Errorf("row hit/miss accounting: %d/%d", c.RowHits, c.RowMisses)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	c, _ := NewController(cfg)
	ok := 0
	for i := 0; i < 10; i++ {
		if c.Enqueue(&Request{Addr: uint64(i * 128)}, 0) {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("accepted %d requests with depth 4", ok)
	}
	if c.QueueSpace() != 0 {
		t.Errorf("space = %d, want 0", c.QueueSpace())
	}
}

func TestThroughputNearPeakUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := NewController(cfg)
	rng := rand.New(rand.NewSource(1))
	served := int64(0)
	var now int64
	for ; now < 20000; now++ {
		for c.QueueSpace() > 0 {
			// Sequential-ish stream across channels for high parallelism.
			addr := uint64(rng.Intn(1<<20)) * uint64(cfg.LineBytes)
			c.Enqueue(&Request{Addr: addr}, now)
		}
		served += int64(len(c.Step(now)))
	}
	bytesPerCycle := float64(served*int64(cfg.LineBytes)) / float64(now)
	peak := cfg.PeakBytesPerCycle()
	if bytesPerCycle < 0.4*peak {
		t.Errorf("sustained %f B/cycle below 40%% of peak %f", bytesPerCycle, peak)
	}
	if c.AvgLatency() <= 0 {
		t.Error("average latency not recorded")
	}
}

func TestAllRequestsComplete(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	want := 0
	done := 0
	var now int64
	for ; now < 5000; now++ {
		if want < 500 && c.QueueSpace() > 0 {
			c.Enqueue(&Request{Addr: uint64(rng.Intn(1 << 24)), Write: rng.Intn(3) == 0}, now)
			want++
		}
		done += len(c.Step(now))
	}
	for ; c.Pending() > 0 && now < 100000; now++ {
		done += len(c.Step(now))
	}
	if done != want {
		t.Errorf("completed %d of %d", done, want)
	}
}

func TestWritesAndReadsBothServed(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	c.Enqueue(&Request{Addr: 0, Write: true}, 0)
	c.Enqueue(&Request{Addr: 4096, Write: false}, 0)
	got := 0
	for now := int64(0); now < 500 && got < 2; now++ {
		got += len(c.Step(now))
	}
	if got != 2 {
		t.Errorf("served %d of 2 mixed requests", got)
	}
}

func TestAddrMappingSpreadsChannels(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		ch, _, _ := c.mapAddr(uint64(i * 128))
		seen[ch] = true
	}
	if len(seen) != DefaultConfig().Channels {
		t.Errorf("sequential lines hit %d channels, want %d", len(seen), DefaultConfig().Channels)
	}
}

func TestHBMOutpacesSingleInjectionPort(t *testing.T) {
	// The paper's premise: one stack can deliver far more reply bytes per
	// cycle than a single 16 B/cycle NoC injection port can accept.
	peak := DefaultConfig().PeakBytesPerCycle()
	if peak < 10*16 {
		t.Errorf("HBM peak %f B/cycle not ≫ one injection port (16 B/cycle)", peak)
	}
}

func TestRefreshOccurs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 500
	cfg.TRFC = 50
	c, _ := NewController(cfg)
	for now := int64(0); now < 2100; now++ {
		c.Step(now)
	}
	// 16 channels × ~4 refresh windows each.
	if c.Refreshes < int64(3*cfg.Channels) {
		t.Errorf("only %d refreshes in 2100 cycles", c.Refreshes)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 400
	cfg.TRFC = 40
	c, _ := NewController(cfg)
	// Open a row, then step past a refresh; the next access to the same row
	// must be a row miss again.
	c.Enqueue(&Request{Addr: 0}, 0)
	var now int64
	for done := 0; done == 0 && now < 300; now++ {
		done = len(c.Step(now))
	}
	if c.RowMisses != 1 {
		t.Fatalf("first access: %d misses", c.RowMisses)
	}
	for ; now < 900; now++ {
		c.Step(now) // refresh happens in here
	}
	c.Enqueue(&Request{Addr: 0}, now)
	for done := 0; done == 0 && now < 1500; now++ {
		done = len(c.Step(now))
	}
	if c.RowMisses != 2 {
		t.Errorf("post-refresh access should miss: misses=%d hits=%d", c.RowMisses, c.RowHits)
	}
}

func TestRefreshValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 100
	cfg.TRFC = 100
	if cfg.Validate() == nil {
		t.Error("TRFC >= TREFI accepted")
	}
	cfg.TREFI = 0
	cfg.TRFC = 0
	if cfg.Validate() != nil {
		t.Error("disabled refresh rejected")
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TREFI = 0
	c, _ := NewController(cfg)
	for now := int64(0); now < 5000; now++ {
		c.Step(now)
	}
	if c.Refreshes != 0 {
		t.Errorf("%d refreshes with TREFI=0", c.Refreshes)
	}
}

func TestAddrMappingProperty(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	f := func(addr uint64) bool {
		ch, bk, row := c.mapAddr(addr)
		return ch >= 0 && ch < DefaultConfig().Channels &&
			bk >= 0 && bk < DefaultConfig().BanksPerChannel &&
			row >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSameLineSameMapping(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	f := func(addr uint64) bool {
		c1, b1, r1 := c.mapAddr(addr)
		c2, b2, r2 := c.mapAddr(addr - addr%128 + 127) // same cache line
		return c1 == c2 && b1 == b2 && r1 == r2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowHitRateAccessor(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	if c.RowHitRate() != 0 {
		t.Error("fresh controller hit rate not 0")
	}
	c.Enqueue(&Request{Addr: 0}, 0)
	for now := int64(0); now < 200; now++ {
		c.Step(now)
	}
	if c.RowHitRate() != 0 { // single cold access: all misses
		t.Errorf("hit rate %f", c.RowHitRate())
	}
}
