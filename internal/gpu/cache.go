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

	tags         [][]uint64 // per set, MRU-first tag list
	dirty        [][]bool   // parallel to tags
	Hits, Misses int64
	Evictions    int64
	DirtyEvicts  int64
}

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
	c := &Cache{sets: sets, ways: ways, lineBytes: lineBytes}
	c.tags = make([][]uint64, sets)
	c.dirty = make([][]bool, sets)
	return c, nil
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
	set := int(line % uint64(c.sets))
	ts := c.tags[set]
	ds := c.dirty[set]
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
	if ts == nil {
		// First touch: allocate the set at full associativity so it never
		// regrows (sets stay lazy — most of a large L2 is never touched).
		ts, ds = make([]uint64, 0, c.ways), make([]bool, 0, c.ways)
	}
	if len(ts) < c.ways {
		ts = append(ts, 0)
		ds = append(ds, false)
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
	c.tags[set] = ts
	c.dirty[set] = ds
	return false, evicted, evictedDirty
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Probe reports whether the line is resident without updating state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	for _, t := range c.tags[set] {
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
type MSHR struct {
	cap     int
	entries map[uint64][]any // line → waiter contexts
	free    [][]any          // waiter slices of completed entries, for reuse
}

// NewMSHR builds an MSHR file with the given number of entries.
func NewMSHR(entries int) *MSHR {
	return &MSHR{cap: entries, entries: map[uint64][]any{}}
}

// Lookup reports whether a fetch for the line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool {
	_, ok := m.entries[line]
	return ok
}

// Full reports whether no new primary miss can be accepted.
func (m *MSHR) Full() bool { return len(m.entries) >= m.cap }

// Allocate registers a primary miss; false when full.
func (m *MSHR) Allocate(line uint64, waiter any) bool {
	if _, ok := m.entries[line]; ok {
		m.entries[line] = append(m.entries[line], waiter)
		return true
	}
	if m.Full() {
		return false
	}
	var ws []any
	if k := len(m.free); k > 0 {
		ws, m.free = m.free[k-1][:0], m.free[:k-1]
	}
	m.entries[line] = append(ws, waiter)
	return true
}

// Merge appends a secondary miss waiter; false if no fetch is outstanding.
func (m *MSHR) Merge(line uint64, waiter any) bool {
	if _, ok := m.entries[line]; !ok {
		return false
	}
	m.entries[line] = append(m.entries[line], waiter)
	return true
}

// Complete removes the entry and returns its waiters. The slice is recycled
// into a later entry: it is valid until the next Allocate.
func (m *MSHR) Complete(line uint64) []any {
	ws, ok := m.entries[line]
	if ok {
		delete(m.entries, line)
		m.free = append(m.free, ws)
	}
	return ws
}

// Outstanding returns the number of in-flight lines.
func (m *MSHR) Outstanding() int { return len(m.entries) }
