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
// geometry variants, refresh on and off, and recycled Request structs.
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

			// id → the pair of twin requests in flight, one per controller.
			type twin struct{ got, want *Request }
			live := map[int]twin{}
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
						g.Addr, g.Write, g.Payload = addr, rng.Intn(4) == 0, next
					} else {
						g = &Request{Addr: addr, Write: rng.Intn(4) == 0, Payload: next}
					}
					w := &Request{Addr: g.Addr, Write: g.Write, Payload: next}
					okG, okW := mc.Enqueue(g, now), ref.enqueue(w, now)
					if okG != okW {
						t.Fatalf("cycle %d: Enqueue accepted=%v, reference %v", now, okG, okW)
					}
					if !okG {
						pool = append(pool, g)
						break
					}
					live[next] = twin{g, w}
					next++
				}
				if mc.QueueSpace() != cfg.QueueDepth-len(ref.queue) || mc.Pending() != len(ref.queue) {
					t.Fatalf("cycle %d: queue holds %d, reference %d", now, mc.Pending(), len(ref.queue))
				}

				got, want := mc.Step(now), ref.step(now)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: %d completions, reference %d", now, len(got), len(want))
				}
				for i := range got {
					id := got[i].Payload.(int)
					if id != want[i].Payload.(int) || got[i].DoneAt() != want[i].doneAt || got[i].Arrived() != want[i].arrived {
						t.Fatalf("cycle %d completion %d: request %d done@%d arrived@%d, reference request %d done@%d arrived@%d",
							now, i, id, got[i].DoneAt(), got[i].Arrived(), want[i].Payload.(int), want[i].doneAt, want[i].arrived)
					}
					delete(live, id)
					pool = append(pool, got[i])
					completed++
				}
				// Issue cycles: every queued request is scheduled in both or
				// neither, for the same completion cycle.
				for id, tw := range live {
					if tw.got.scheduled != tw.want.scheduled || (tw.got.scheduled && tw.got.doneAt != tw.want.doneAt) {
						t.Fatalf("cycle %d request %d: issued=%v done@%d, reference issued=%v done@%d",
							now, id, tw.got.scheduled, tw.got.doneAt, tw.want.scheduled, tw.want.doneAt)
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
		})
	}
}
