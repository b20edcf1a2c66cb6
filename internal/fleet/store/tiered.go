package store

// Tiered layers a fast front store (typically Memory) over a durable back
// store (typically Disk). Reads hit the front first and promote back-store
// hits; writes go to both. Because the back store retains everything, a
// front-tier eviction never makes a key unretrievable, so Put reports no
// evictions to the owner. No program code uses it: the service's result
// store reads and writes through its disk tier itself. It is kept only for
// bench/'s store.tiered_miss_us rung.
type Tiered struct {
	front Store
	back  Store
}

// NewTiered returns a tiered store reading through front to back.
func NewTiered(front, back Store) *Tiered {
	return &Tiered{front: front, back: back}
}

// Get returns the entry from the front tier, falling back to (and
// promoting from) the back tier.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if v, ok := t.front.Get(key); ok {
		return v, true
	}
	v, ok := t.back.Get(key)
	if ok {
		t.front.Put(key, v)
	}
	return v, ok
}

// Put writes the entry to both tiers. Front-tier evictions are absorbed:
// the back tier still holds those keys.
func (t *Tiered) Put(key string, val []byte) []string {
	t.back.Put(key, val)
	t.front.Put(key, val)
	return nil
}

// Len counts the durable tier's entries.
func (t *Tiered) Len() int { return t.back.Len() }

// SizeBytes reports the durable tier's payload bytes.
func (t *Tiered) SizeBytes() int64 { return t.back.SizeBytes() }
