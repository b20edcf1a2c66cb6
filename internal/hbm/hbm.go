// Package hbm models a High Bandwidth Memory stack behind each memory
// controller: multiple channels per stack, banks per channel, open-row bank
// timing, and FR-FCFS (first-ready, first-come-first-served) scheduling —
// the role Ramulator plays in the paper's simulation environment (§5).
//
// Timing runs in the core clock domain (the HBM bus clock and the paper's
// 1126 MHz core clock are within ~12%, folded into the timing constants).
// The per-stack peak bandwidth considerably exceeds what a single NoC
// injection port can drain — the imbalance that motivates EquiNox.
package hbm

import (
	"fmt"
	"math"
)

// Config describes one HBM stack and its controller.
type Config struct {
	Channels        int // 16 per chip in the paper's setup
	BanksPerChannel int
	QueueDepth      int // controller request queue capacity

	// Bank timing in core cycles.
	TRCD   int // activate → column access
	TCAS   int // column access → first data
	TRP    int // precharge
	TBurst int // data-bus occupancy per 128B access

	// Refresh: every TREFI cycles each channel performs an all-bank refresh
	// that occupies its banks for TRFC cycles. Zero TREFI disables refresh.
	TREFI int
	TRFC  int

	RowBytes  int // row buffer size
	LineBytes int // access granularity (cache line)
}

// DefaultConfig returns timing for one second-generation HBM stack
// (256 GB/s per stack, Table 1) at core clock.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		BanksPerChannel: 16,
		QueueDepth:      64,
		TRCD:            16,
		TCAS:            16,
		TRP:             16,
		TBurst:          9,    // 16 ch × 128 B / 9 cyc ≈ 227 B/cycle ≈ 256 GB/s @1.126 GHz
		TREFI:           4400, // ≈3.9 µs at 1.126 GHz
		TRFC:            200,  // ≈180 ns all-bank refresh
		RowBytes:        2048,
		LineBytes:       128,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels < 1 || c.BanksPerChannel < 1 {
		return fmt.Errorf("hbm: need ≥1 channel and bank")
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("hbm: queue depth must be ≥1")
	}
	if c.TRCD < 0 || c.TCAS < 0 || c.TRP < 0 || c.TBurst < 1 {
		return fmt.Errorf("hbm: invalid timing")
	}
	if c.TREFI < 0 || c.TRFC < 0 || (c.TREFI > 0 && c.TRFC >= c.TREFI) {
		return fmt.Errorf("hbm: invalid refresh timing")
	}
	if c.RowBytes < c.LineBytes || c.LineBytes < 1 {
		return fmt.Errorf("hbm: invalid row/line bytes")
	}
	return nil
}

// Request is one memory access.
type Request struct {
	Addr  uint64
	Write bool

	arrived   int64
	doneAt    int64
	scheduled bool

	// Address decode, filled once by Enqueue (see mapAddr).
	ch, bk int
	row    int64
}

type bank struct {
	openRow  int64 // -1 = closed
	busyTill int64
}

type channel struct {
	banks       []bank
	busTill     int64 // data bus occupancy
	nextRefresh int64

	// This cycle's FR-FCFS pick (Step scratch): the chosen request and
	// whether it is a row hit; nil between cycles.
	best    *Request
	bestHit bool
}

// Controller is one FR-FCFS memory controller fronting one HBM stack.
type Controller struct {
	cfg   Config
	queue []*Request // arrival order, capacity QueueDepth
	done  []*Request // Step's result buffer, reused every call
	chans []channel

	// wake is the earliest cycle Step can do anything: retire a request,
	// issue one, or start a refresh. Step returns at once before it, and
	// Enqueue pulls it down to the enqueue cycle.
	wake int64

	// Stats.
	Served     int64
	RowHits    int64
	RowMisses  int64
	BusyCycles int64
	TotalWait  int64
	Refreshes  int64
}

// NewController builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, queue: make([]*Request, 0, cfg.QueueDepth)}
	c.chans = make([]channel, cfg.Channels)
	banks := make([]bank, cfg.Channels*cfg.BanksPerChannel)
	for b := range banks {
		banks[b].openRow = -1
	}
	for i := range c.chans {
		c.chans[i].banks = banks[i*cfg.BanksPerChannel : (i+1)*cfg.BanksPerChannel]
		// Stagger refreshes across channels so they don't align.
		if cfg.TREFI > 0 {
			c.chans[i].nextRefresh = int64((i + 1) * cfg.TREFI / cfg.Channels)
		}
	}
	return c, nil
}

// QueueSpace returns remaining request slots.
func (c *Controller) QueueSpace() int { return c.cfg.QueueDepth - len(c.queue) }

// Enqueue adds a request; false when the queue is full. The address is
// decoded here, once, so Step only compares integers. The controller holds
// the request until Step returns it; a returned request may be enqueued
// again.
func (c *Controller) Enqueue(r *Request, now int64) bool {
	if len(c.queue) >= c.cfg.QueueDepth {
		return false
	}
	r.arrived, r.doneAt, r.scheduled = now, 0, false
	r.ch, r.bk, r.row = c.mapAddr(r.Addr)
	c.queue = append(c.queue, r)
	c.wake = min(c.wake, now)
	return true
}

// Pending returns the number of queued (incomplete) requests.
func (c *Controller) Pending() int { return len(c.queue) }

// mapAddr splits an address into channel, bank, and row.
func (c *Controller) mapAddr(addr uint64) (ch, bk int, row int64) {
	line := addr / uint64(c.cfg.LineBytes)
	ch = int(line % uint64(c.cfg.Channels))
	line /= uint64(c.cfg.Channels)
	bk = int(line % uint64(c.cfg.BanksPerChannel))
	line /= uint64(c.cfg.BanksPerChannel)
	rowLines := uint64(c.cfg.RowBytes / c.cfg.LineBytes)
	row = int64(line / rowLines)
	return
}

// Step advances one cycle and returns the requests completing this cycle.
// Scheduling is FR-FCFS per channel: among schedulable requests, the first
// ready row hit in arrival order, else the oldest ready request.
//
// The returned slice is the controller's own buffer, overwritten by the next
// Step: callers consume it before stepping again and do not retain it.
//
// Before the wake cycle nothing can happen, so Step returns at once. The
// caller may skip cycles (gpu.CB freezes the controller while its reply
// buffer is full); a Step at or past the wake cycle then does what it would
// have done without the wake time.
func (c *Controller) Step(now int64) []*Request {
	if now < c.wake {
		return c.done[:0]
	}
	// wake is recomputed below as the minimum over everything pending.
	wake := int64(math.MaxInt64)
	// All-bank refresh: closes every row and blocks the channel's banks for
	// TRFC cycles.
	if c.cfg.TREFI > 0 {
		for chIx := range c.chans {
			ch := &c.chans[chIx]
			if now < ch.nextRefresh {
				wake = min(wake, ch.nextRefresh)
				continue
			}
			ch.nextRefresh = now + int64(c.cfg.TREFI)
			wake = min(wake, ch.nextRefresh)
			c.Refreshes++
			till := now + int64(c.cfg.TRFC)
			for b := range ch.banks {
				if ch.banks[b].busyTill < till {
					ch.banks[b].busyTill = till
				}
				ch.banks[b].openRow = -1
			}
		}
	}

	// One pass over the queue in arrival order retires what completed and
	// picks each channel's request. Channels share nothing — a request
	// belongs to one channel and an issue touches only that channel's banks
	// and bus — so visiting each request once and updating its channel's
	// pick is the per-channel scan, run for every channel at once. A request
	// issued this cycle completes at least TBurst ≥ 1 cycles later, so
	// retiring before issuing loses nothing.
	//
	// The same pass bounds the wake cycle: a queued issued request's
	// completion, and for one not issued its bank's free cycle (next cycle
	// if it is free now, as it may lose to its channel's pick). An issue
	// below only moves a bank's free cycle later, so these bounds stay
	// early, never late.
	done := c.done[:0]
	w := 0
	for _, r := range c.queue {
		if r.scheduled {
			if r.doneAt <= now {
				done = append(done, r)
				c.Served++
				c.TotalWait += r.doneAt - r.arrived
				continue
			}
			wake = min(wake, r.doneAt)
		} else {
			ch := &c.chans[r.ch]
			b := &ch.banks[r.bk]
			wake = min(wake, max(b.busyTill, now+1))
			// Issue needs a free bank; the data burst may queue behind the
			// channel bus (bank-level parallelism hides access latency).
			if !ch.bestHit && b.busyTill <= now {
				if b.openRow == r.row {
					ch.best, ch.bestHit = r, true // FR: first ready row hit wins
				} else if ch.best == nil {
					ch.best = r
				}
			}
		}
		c.queue[w] = r
		w++
	}
	c.queue = c.queue[:w]
	c.done = done

	// Issue each channel's pick.
	for chIx := range c.chans {
		ch := &c.chans[chIx]
		r := ch.best
		if r == nil {
			continue
		}
		ch.best, ch.bestHit = nil, false
		b := &ch.banks[r.bk]
		lat := int64(c.cfg.TCAS)
		if b.openRow != r.row {
			if b.openRow >= 0 {
				lat += int64(c.cfg.TRP)
			}
			lat += int64(c.cfg.TRCD)
			b.openRow = r.row
			c.RowMisses++
		} else {
			c.RowHits++
		}
		burst := int64(c.cfg.TBurst)
		// Bank access latency overlaps with other banks' transfers; only the
		// data burst occupies the channel bus.
		dataStart := now + lat
		if ch.busTill > dataStart {
			dataStart = ch.busTill
		}
		r.doneAt = dataStart + burst
		ch.busTill = r.doneAt
		b.busyTill = r.doneAt
		r.scheduled = true
		c.BusyCycles += burst
		wake = min(wake, r.doneAt)
	}
	c.wake = wake
	return done
}

// AvgLatency returns the mean enqueue-to-data latency in cycles.
func (c *Controller) AvgLatency() float64 {
	if c.Served == 0 {
		return 0
	}
	return float64(c.TotalWait) / float64(c.Served)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (c *Controller) RowHitRate() float64 {
	t := c.RowHits + c.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(t)
}

// PeakBytesPerCycle returns the stack's theoretical peak data rate, used by
// documentation and the bandwidth-pressure tests.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Channels) * float64(c.LineBytes) / float64(c.TBurst)
}
