package hbm

import (
	"fmt"
	"math/rand"
	"testing"
)

// refController is the controller as first written, kept as the oracle for
// the cached-decode one: every cycle, for every channel in turn, it scans the
// whole queue in arrival order, decoding each address with mapAddr on the
// spot, issues that channel's FR-FCFS pick, and only then retires. It shares
// nothing with Controller.Step but mapAddr and the timing constants.
type refController struct {
	c     *Controller // never stepped: lends cfg, mapAddr and its fresh channel state
	queue []*Request
	chans []channel

	served, rowHits, rowMisses, busyCycles, totalWait, refreshes int64
}

func newRefController(t *testing.T, cfg Config) *refController {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refController{c: c, chans: c.chans}
}

func (rc *refController) enqueue(r *Request, now int64) bool {
	if len(rc.queue) >= rc.c.cfg.QueueDepth {
		return false
	}
	r.arrived = now
	rc.queue = append(rc.queue, r)
	return true
}

func (rc *refController) step(now int64) []*Request {
	cfg := rc.c.cfg
	for chIx := range rc.chans {
		ch := &rc.chans[chIx]
		if cfg.TREFI > 0 && now >= ch.nextRefresh {
			ch.nextRefresh = now + int64(cfg.TREFI)
			rc.refreshes++
			till := now + int64(cfg.TRFC)
			for b := range ch.banks {
				if ch.banks[b].busyTill < till {
					ch.banks[b].busyTill = till
				}
				ch.banks[b].openRow = -1
			}
		}
		bestIdx, bestHit := -1, false
		for i, r := range rc.queue {
			if r.scheduled {
				continue
			}
			rch, rbk, rrow := rc.c.mapAddr(r.Addr)
			if rch != chIx {
				continue
			}
			b := &ch.banks[rbk]
			if b.busyTill > now {
				continue
			}
			hit := b.openRow == rrow
			if bestIdx == -1 || (hit && !bestHit) {
				bestIdx, bestHit = i, hit
				if hit {
					break
				}
			}
		}
		if bestIdx == -1 {
			continue
		}
		r := rc.queue[bestIdx]
		_, rbk, rrow := rc.c.mapAddr(r.Addr)
		b := &ch.banks[rbk]
		lat := int64(cfg.TCAS)
		if b.openRow != rrow {
			if b.openRow >= 0 {
				lat += int64(cfg.TRP)
			}
			lat += int64(cfg.TRCD)
			b.openRow = rrow
			rc.rowMisses++
		} else {
			rc.rowHits++
		}
		dataStart := now + lat
		if ch.busTill > dataStart {
			dataStart = ch.busTill
		}
		r.doneAt = dataStart + int64(cfg.TBurst)
		ch.busTill, b.busyTill = r.doneAt, r.doneAt
		r.scheduled = true
		rc.busyCycles += int64(cfg.TBurst)
	}
	var done []*Request
	w := 0
	for _, r := range rc.queue {
		if r.scheduled && r.doneAt <= now {
			done = append(done, r)
			rc.served++
			rc.totalWait += r.doneAt - r.arrived
		} else {
			rc.queue[w] = r
			w++
		}
	}
	rc.queue = rc.queue[:w]
	return done
}

// TestCachedDecodeMatchesReference drives the controller and the per-step-
// decode reference with one random request stream and requires, every cycle,
// the same acceptances, the same requests issued with the same completion
// cycle, and the same completions in the same order — across timing and
// geometry variants, refresh on and off, and recycled Request structs. Like
// gpu.CB while its reply buffer is full, both controllers are frozen — not
// stepped, though requests still arrive — for random runs of cycles, some
// chosen to span a due refresh, so the controller's wake time is checked
// against a reference that has none.
func TestCachedDecodeMatchesReference(t *testing.T) {
	variants := map[string]func(*Config){
		"Default":   func(*Config) {},
		"NoRefresh": func(c *Config) { c.TREFI, c.TRFC = 0, 0 },
		"FrequentRefresh": func(c *Config) {
			c.TREFI, c.TRFC = 400, 40
		},
		"TwoByTwoShallowQueue": func(c *Config) {
			c.Channels, c.BanksPerChannel, c.QueueDepth = 2, 2, 8
		},
		"OddGeometry": func(c *Config) {
			c.Channels, c.BanksPerChannel, c.RowBytes, c.LineBytes = 3, 5, 384, 64
			c.TRCD, c.TCAS, c.TRP, c.TBurst = 7, 0, 3, 1
		},
		"OneChannelNoRefresh": func(c *Config) {
			c.Channels, c.BanksPerChannel, c.TREFI, c.TRFC = 1, 4, 0, 0
		},
	}
	const requests = 12000
	for name, edit := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			edit(&cfg)
			mc, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefController(t, cfg)
			rng := rand.New(rand.NewSource(int64(len(name))))
			freeze := rand.New(rand.NewSource(int64(len(name)) + 1))
			var frozenUntil int64
			frozen, refreshFrozen := 0, 0

			// Each request in flight under test → its id and its twin in the
			// reference. A recycled request is a new key once it completes.
			type twin struct {
				id   int
				want *Request
			}
			live := map[*Request]twin{}
			var pool []*Request // completed requests, re-enqueued like gpu.CB does
			next, completed := 0, 0
			stream := uint64(rng.Intn(1 << 20))
			for now := int64(0); completed < requests; now++ {
				if now > 400*requests {
					t.Fatalf("stalled: %d of %d completed", completed, requests)
				}
				// Bursty arrivals: streaming runs (row hits) mixed with
				// random lines (bank conflicts), sometimes more than fit.
				for k := rng.Intn(4); k > 0 && next < requests; k-- {
					if rng.Intn(3) == 0 {
						stream = uint64(rng.Intn(1 << 20))
					} else {
						stream++
					}
					addr := stream*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
					var g *Request
					if k := len(pool); k > 0 && rng.Intn(2) == 0 {
						g, pool = pool[k-1], pool[:k-1]
						g.Addr, g.Write = addr, rng.Intn(4) == 0
					} else {
						g = &Request{Addr: addr, Write: rng.Intn(4) == 0}
					}
					w := &Request{Addr: g.Addr, Write: g.Write}
					okG, okW := mc.Enqueue(g, now), ref.enqueue(w, now)
					if okG != okW {
						t.Fatalf("cycle %d: Enqueue accepted=%v, reference %v", now, okG, okW)
					}
					if !okG {
						pool = append(pool, g)
						break
					}
					live[g] = twin{next, w}
					next++
				}
				if mc.QueueSpace() != cfg.QueueDepth-len(ref.queue) || mc.Pending() != len(ref.queue) {
					t.Fatalf("cycle %d: queue holds %d, reference %d", now, mc.Pending(), len(ref.queue))
				}

				if now >= frozenUntil {
					due := nextRefresh(mc)
					switch {
					case cfg.TREFI > 0 && due > now && due <= now+8 && freeze.Intn(2) == 0:
						frozenUntil = due + 1 + int64(freeze.Intn(30))
						refreshFrozen++
					case freeze.Intn(40) == 0:
						frozenUntil = now + 1 + int64(freeze.Intn(40))
					}
				}
				if now < frozenUntil {
					frozen++
					continue
				}

				got, want := mc.Step(now), ref.step(now)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: %d completions, reference %d", now, len(got), len(want))
				}
				for i := range got {
					tw, ok := live[got[i]]
					if !ok {
						t.Fatalf("cycle %d completion %d: a request not in flight", now, i)
					}
					if tw.want != want[i] || got[i].doneAt != want[i].doneAt || got[i].arrived != want[i].arrived {
						t.Fatalf("cycle %d completion %d: request %d done@%d arrived@%d, reference done@%d arrived@%d (the same request: %v)",
							now, i, tw.id, got[i].doneAt, got[i].arrived, want[i].doneAt, want[i].arrived, tw.want == want[i])
					}
					delete(live, got[i])
					pool = append(pool, got[i])
					completed++
				}
				// Issue cycles: every queued request is scheduled in both or
				// neither, for the same completion cycle.
				for g, tw := range live {
					if g.scheduled != tw.want.scheduled || (g.scheduled && g.doneAt != tw.want.doneAt) {
						t.Fatalf("cycle %d request %d: issued=%v done@%d, reference issued=%v done@%d",
							now, tw.id, g.scheduled, g.doneAt, tw.want.scheduled, tw.want.doneAt)
					}
				}
			}
			gotStats := fmt.Sprint(mc.Served, mc.RowHits, mc.RowMisses, mc.BusyCycles, mc.TotalWait, mc.Refreshes)
			wantStats := fmt.Sprint(ref.served, ref.rowHits, ref.rowMisses, ref.busyCycles, ref.totalWait, ref.refreshes)
			if gotStats != wantStats {
				t.Errorf("stats (served hits misses busy wait refreshes) = %s, reference %s", gotStats, wantStats)
			}
			if mc.Served != requests || mc.RowHits == 0 || mc.RowMisses == 0 {
				t.Errorf("degenerate run: served %d, %d hits, %d misses", mc.Served, mc.RowHits, mc.RowMisses)
			}
			if (cfg.TREFI > 0) != (mc.Refreshes > 0) {
				t.Errorf("refreshes = %d with TREFI %d", mc.Refreshes, cfg.TREFI)
			}
			if frozen == 0 || (cfg.TREFI > 0) != (refreshFrozen > 0) {
				t.Errorf("%d frozen cycles, %d freezes across a due refresh, with TREFI %d", frozen, refreshFrozen, cfg.TREFI)
			}
		})
	}
}

// nextRefresh returns the earliest cycle any of the controller's channels is
// due to refresh.
func nextRefresh(c *Controller) int64 {
	due := c.chans[0].nextRefresh
	for i := range c.chans {
		due = min(due, c.chans[i].nextRefresh)
	}
	return due
}
