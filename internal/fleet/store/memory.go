package store

import (
	"container/list"
	"sync"
)

// Memory is a bounded, thread-safe LRU store. It is evicted by whichever
// bound bites first: a maximum entry count and a maximum approximate byte
// total (payload bytes only; map and list overhead are not counted). The
// newest entry is always retained, even when it alone exceeds the byte
// bound — refusing a Put would silently drop fresh results.
type Memory struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
}

type memEntry struct {
	key string
	val []byte
}

// NewMemory returns an LRU bounded to maxEntries entries (minimum 1) and
// maxBytes payload bytes (0 = unbounded bytes).
func NewMemory(maxEntries int, maxBytes int64) *Memory {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Memory{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// Get returns the cached value and promotes the entry.
func (m *Memory) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// Put inserts or refreshes an entry and returns the keys evicted to stay
// within the entry and byte bounds.
func (m *Memory) Put(key string, val []byte) (evicted []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		e := el.Value.(*memEntry)
		m.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		m.ll.MoveToFront(el)
	} else {
		m.items[key] = m.ll.PushFront(&memEntry{key: key, val: val})
		m.bytes += int64(len(val))
	}
	for m.ll.Len() > 1 && (m.ll.Len() > m.maxEntries || (m.maxBytes > 0 && m.bytes > m.maxBytes)) {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		e := oldest.Value.(*memEntry)
		delete(m.items, e.key)
		m.bytes -= int64(len(e.val))
		evicted = append(evicted, e.key)
	}
	return evicted
}

// Len returns the number of cached entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// SizeBytes returns the total payload bytes held.
func (m *Memory) SizeBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}
