// Package gpu models the throughput-processor components of the paper's
// system: processing elements (the SMs of a GPU) with private L1 caches and
// MSHRs, and shared last-level cache banks (CBs) with MSHRs fronting the HBM
// memory controllers — the role GPGPU-Sim plays in the paper's environment.
package gpu

import "fmt"

// Cache is a set-associative write-allocate cache with LRU replacement.
// It models tags only; data is irrelevant to the timing studies.
type Cache struct {
	sets      int
	ways      int
	lineBytes int

	// Sets are lazy — most of a large L2 is never touched — and a touched
	// set's lines are a ways-long row carved, in first-touch order, from
	// slabs of setsPerSlab rows: no allocation per set, 8 bytes of
	// bookkeeping per untouched one.
	set   []setRef
	tags  [][]uint64 // slabs of rows, each row MRU-first
	dirty [][]bool   // parallel to tags
	rows  int32      // rows carved so far

	Hits, Misses int64
	Evictions    int64
	DirtyEvicts  int64
}

// setRef locates one set's lines: row-1 is its row number across the slabs
// (0 until the set is first touched) and used the lines resident in it.
type setRef struct {
	row, used int32
}

// setsPerSlab is how many first-touched sets one slab serves.
const setsPerSlab = 32

// NewCache builds a cache of the given capacity.
func NewCache(capacityBytes, ways, lineBytes int) (*Cache, error) {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("gpu: invalid cache geometry %d/%d/%d", capacityBytes, ways, lineBytes)
	}
	lines := capacityBytes / lineBytes
	if lines < ways {
		return nil, fmt.Errorf("gpu: capacity %dB too small for %d ways", capacityBytes, ways)
	}
	sets := lines / ways
	return &Cache{sets: sets, ways: ways, lineBytes: lineBytes, set: make([]setRef, sets)}, nil
}

// lines returns the resident lines of a touched set, MRU first, with room
// for the set's full associativity.
func (c *Cache) lines(ref setRef) ([]uint64, []bool) {
	slab, at := (ref.row-1)/setsPerSlab, int((ref.row-1)%setsPerSlab)*c.ways
	return c.tags[slab][at : at+int(ref.used) : at+c.ways], c.dirty[slab][at : at+int(ref.used) : at+c.ways]
}

// Access looks up the line containing addr, filling it on a miss (evicting
// LRU), and returns whether it hit. Eviction information is discarded; use
// Fill for write-back caches.
func (c *Cache) Access(addr uint64) bool {
	hit, _, _ := c.Fill(addr, false)
	return hit
}

// Fill looks up the line containing addr, filling it on a miss. markDirty
// marks the line modified (a write). On a miss that evicts a modified line,
// evicted is that line's number and evictedDirty is true — the caller owns
// the write-back.
func (c *Cache) Fill(addr uint64, markDirty bool) (hit bool, evicted uint64, evictedDirty bool) {
	line := addr / uint64(c.lineBytes)
	ref := &c.set[line%uint64(c.sets)]
	if ref.row == 0 {
		// First touch: carve the set's row, from a new slab if the last is
		// used up.
		if c.rows%setsPerSlab == 0 {
			c.tags = append(c.tags, make([]uint64, setsPerSlab*c.ways))
			c.dirty = append(c.dirty, make([]bool, setsPerSlab*c.ways))
		}
		c.rows++
		ref.row = c.rows
	}
	ts, ds := c.lines(*ref)
	for i, t := range ts {
		if t == line {
			// Move to MRU.
			copy(ts[1:i+1], ts[:i])
			ts[0] = line
			wasDirty := ds[i]
			copy(ds[1:i+1], ds[:i])
			ds[0] = wasDirty || markDirty
			c.Hits++
			return true, 0, false
		}
	}
	c.Misses++
	if len(ts) < c.ways {
		ts, ds = ts[:len(ts)+1], ds[:len(ds)+1]
		ref.used++
	} else {
		// Evict LRU (the last entry).
		evicted = ts[len(ts)-1]
		evictedDirty = ds[len(ds)-1]
		c.Evictions++
		if evictedDirty {
			c.DirtyEvicts++
		}
	}
	copy(ts[1:], ts)
	ts[0] = line
	copy(ds[1:], ds)
	ds[0] = markDirty
	return false, evicted, evictedDirty
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Probe reports whether the line is resident without updating state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	ref := c.set[line%uint64(c.sets)]
	if ref.row == 0 {
		return false
	}
	ts, _ := c.lines(ref)
	for _, t := range ts {
		if t == line {
			return true
		}
	}
	return false
}

// HitRate returns hits/(hits+misses), 0 when unused.
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// MSHR tracks outstanding misses with merging: secondary misses on a line
// already being fetched merge into the existing entry instead of consuming
// a new slot or re-fetching.
//
// It is a fixed table scanned linearly, not a map: Table 1's files hold at
// most 24 (PE) or 64 (bank) lines, so a scan of one slab of entries beats
// hashing the line on every L1 and L2 miss. Live entries come first; a
// completed one is swap-removed. The table is one slab allocated at the
// first miss, so the 64 files every system builds cost nothing until used.
type MSHR struct {
	size    int
	entries []mshrEntry // len = outstanding lines; cap = size once allocated
}

// mshrEntry is one outstanding line and its waiters. A completed entry's
// waiter slice stays in its slot, past the live ones, for the next Allocate.
type mshrEntry struct {
	line    uint64
	waiters []any
}

// NewMSHR builds an MSHR file with the given number of entries.
func NewMSHR(entries int) *MSHR {
	return &MSHR{size: entries}
}

// find returns the live entry of line, or nil.
func (m *MSHR) find(line uint64) *mshrEntry {
	for i := range m.entries {
		if m.entries[i].line == line {
			return &m.entries[i]
		}
	}
	return nil
}

// Lookup reports whether a fetch for the line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool { return m.find(line) != nil }

// Full reports whether no new primary miss can be accepted.
func (m *MSHR) Full() bool { return len(m.entries) >= m.size }

// Allocate registers a primary miss; false when full.
func (m *MSHR) Allocate(line uint64, waiter any) bool {
	if e := m.find(line); e != nil {
		e.waiters = append(e.waiters, waiter)
		return true
	}
	if m.Full() {
		return false
	}
	if m.entries == nil {
		m.entries = make([]mshrEntry, 0, m.size)
	}
	m.entries = m.entries[:len(m.entries)+1]
	e := &m.entries[len(m.entries)-1]
	e.line, e.waiters = line, append(e.waiters[:0], waiter)
	return true
}

// Merge appends a secondary miss waiter; false if no fetch is outstanding.
func (m *MSHR) Merge(line uint64, waiter any) bool {
	e := m.find(line)
	if e == nil {
		return false
	}
	e.waiters = append(e.waiters, waiter)
	return true
}

// Complete removes the entry and returns its waiters. The slice is recycled
// into a later entry: it is valid until the next Allocate.
func (m *MSHR) Complete(line uint64) []any {
	e := m.find(line)
	if e == nil {
		return nil
	}
	last := &m.entries[len(m.entries)-1]
	ws := e.waiters
	*e, *last = *last, mshrEntry{waiters: ws}
	m.entries = m.entries[:len(m.entries)-1]
	return ws
}

// Outstanding returns the number of in-flight lines.
func (m *MSHR) Outstanding() int { return len(m.entries) }
