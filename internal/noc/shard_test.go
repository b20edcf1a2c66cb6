package noc

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"equinox/internal/flight"
)

// TestMain raises GOMAXPROCS so the par pool gets real helpers even on a
// single-core machine — otherwise every sharded Step would inline and the
// race detector would have no concurrent schedules to check.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// shardPairs is crossing traffic that keeps rows busy across shard
// boundaries: corner-to-corner streams plus a hotspot column.
var shardPairs = [][2]int{
	{0, 63}, {63, 0}, {7, 56}, {56, 7}, {1, 27}, {62, 27}, {8, 55}, {55, 8},
}

// newShardedPair builds two identical networks, one serial and one with the
// given shard count, each with a flight recorder attached so the comparison
// covers the event stream as well as the architectural state.
func newShardedPair(t *testing.T, shards int) (serial, sharded *allocHarness) {
	t.Helper()
	mk := func(sh int) *allocHarness {
		cfg := DefaultConfig("t", 8, 8)
		cfg.Routing = RoutingXY
		cfg.VCPolicy = VCByClass
		cfg.Shards = sh
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachFlight(flight.Options{BufferCap: 1 << 18, StallLimit: -1})
		return newAllocHarness(t, n, ReadRequest, shardPairs, 6)
	}
	return mk(0), mk(shards)
}

// TestShardedMatchesSerial drives a serial and a sharded network with the
// identical injection schedule and checks, every cycle, that deliveries come
// back in the same order with the same IDs and that the final statistics and
// traced event streams are identical. This is the network-level half of the
// determinism contract (the sim-level half is TestParallelMatchesSerial).
func TestShardedMatchesSerial(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(map[int]string{2: "Shards2", 4: "Shards4", 8: "Shards8"}[shards], func(t *testing.T) {
			hs, hp := newShardedPair(t, shards)
			if got := hp.n.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			step := func(h *allocHarness) []int64 {
				now := h.n.Now()
				for len(h.free) > 0 {
					p := h.free[len(h.free)-1]
					if !h.n.TryInject(p, now) {
						break
					}
					h.free = h.free[:len(h.free)-1]
				}
				h.n.Step()
				var ids []int64
				for node := 0; node < h.n.Cfg.Nodes(); node++ {
					for {
						p := h.n.PopDelivered(node)
						if p == nil {
							break
						}
						ids = append(ids, p.ID)
						h.free = append(h.free, p)
					}
				}
				return ids
			}
			for cycle := 0; cycle < 600; cycle++ {
				a, b := step(hs), step(hp)
				if len(a) != len(b) {
					t.Fatalf("cycle %d: %d deliveries serial vs %d sharded", cycle, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d delivery %d: packet %d serial vs %d sharded", cycle, i, a[i], b[i])
					}
				}
			}
			if hs.n.Stats != hp.n.Stats {
				t.Errorf("stats diverged:\nserial  %+v\nsharded %+v", hs.n.Stats, hp.n.Stats)
			}
			se, pe := hs.n.FlightRecorder().Events(), hp.n.FlightRecorder().Events()
			if len(se) != len(pe) {
				t.Fatalf("%d traced events serial vs %d sharded", len(se), len(pe))
			}
			for i := range se {
				if se[i] != pe[i] {
					t.Fatalf("event %d diverged:\nserial  %+v\nsharded %+v", i, se[i], pe[i])
				}
			}
		})
	}
}

// TestBarrierObserver checks that a sharded network above the inline-fallback
// threshold reports the barrier waits of its two parallel phases through the
// package observer, and none for link delivery, which runs serially.
func TestBarrierObserver(t *testing.T) {
	var fired [NumPhases]atomic.Int64
	SetBarrierObserver(func(phase int, waitNS int64) {
		if phase < 0 || phase >= NumPhases {
			t.Errorf("phase %d out of range", phase)
			return
		}
		if waitNS < 0 {
			t.Errorf("negative wait %d", waitNS)
		}
		fired[phase].Add(1)
	})
	defer SetBarrierObserver(nil)

	_, hp := newShardedPair(t, 4)
	for cycle := 0; cycle < 4*barrierSampleEvery; cycle++ {
		hp.tick()
	}
	for _, ph := range []int{phaseVC, phaseSA} {
		if fired[ph].Load() == 0 {
			t.Errorf("phase %q never observed", PhaseName(ph))
		}
	}
	if got := fired[phaseLink].Load(); got != 0 {
		t.Errorf("phase %q observed %d times, but it has no barrier", PhaseName(phaseLink), got)
	}
	if PhaseName(0) == "" || PhaseName(NumPhases-1) == "" {
		t.Error("empty phase name")
	}
}

// TestBarrierSamplesOnePhase pins what a barrier-wait sample is: the wait of
// the one phase it is labelled with. par.Group accumulates its wait over every
// Run, and runPhase once read it on sampled cycles only, so the first phase of
// a sampled cycle was charged the previous 63 cycles' waits of every phase —
// ≈190× its own. Wall-clock waits cannot be compared on a shared host (most
// are zero: the caller finishes a small phase before a helper wakes), so the
// pin is the accounting itself: after any Step the group holds no wait that a
// later sample could be charged.
func TestBarrierSamplesOnePhase(t *testing.T) {
	var waited atomic.Int64
	SetBarrierObserver(func(_ int, waitNS int64) {
		if waitNS > 0 {
			waited.Add(1)
		}
	})
	defer SetBarrierObserver(nil)

	// Multi-flit replies between every pair of rows keep all four bands busy,
	// so most cycles take the parallel path and helpers join in.
	cfg := DefaultConfig("t", 8, 8)
	cfg.Shards = 4
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for src := 0; src < 64; src++ {
		pairs = append(pairs, [2]int{src, (src*37 + 11) % 64})
	}
	h := newAllocHarness(t, n, ReadReply, pairs, 2)
	for cycle := 0; cycle < 64*barrierSampleEvery; cycle++ {
		h.tick()
		if left := n.group.TakeWaitNS(); left != 0 {
			t.Fatalf("cycle %d: %d ns of barrier wait left in the group for a later sample", cycle, left)
		}
	}
	t.Logf("%d of %d sampled phases waited at their barrier", waited.Load(), 2*64)
}

// TestShardedStepAllocs is the parallel counterpart of
// TestStepDoesNotAllocate: after warm-up fills the per-shard staging slices,
// the sharded hot loop must not allocate either. Helper wake-ups ride a
// preallocated buffered channel and staged effects reuse their slices, so the
// pin is exact zero, same as the serial path.
func TestShardedStepAllocs(t *testing.T) {
	cfg := DefaultConfig("t", 8, 8)
	cfg.Routing = RoutingXY
	cfg.VCPolicy = VCByClass
	cfg.Shards = 4
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachProbe(16)
	h := newAllocHarness(t, n, ReadRequest, shardPairs, 6)
	checkSteadyStateAllocs(t, h)
}

// TestShardConfigValidation covers the Shards knob's edges: negative counts
// are rejected, and counts above Height clamp rather than fail.
func TestShardConfigValidation(t *testing.T) {
	cfg := DefaultConfig("t", 4, 4)
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	cfg.Shards = 64 // > Height: clamps to one row band per shard
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Shards(); got != cfg.Height {
		t.Errorf("Shards() = %d, want clamp to height %d", got, cfg.Height)
	}
}
