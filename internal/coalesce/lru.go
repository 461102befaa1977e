package coalesce

import (
	"container/list"
	"sync"
)

// lruCache is a mutex-guarded LRU over canonical request keys. Values
// are deterministic functions of their canonical request, so entries
// never expire — they are only evicted by capacity.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	key string
	val *Value
}

// newLRUCache returns a cache bounded to cap entries; cap <= 0 disables
// caching entirely (every Get misses, Put is a no-op).
func newLRUCache(cap int) *lruCache {
	return &lruCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the entry for key, marking it most recently used.
func (c *lruCache) Get(key string) (*Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes an entry, evicting the least recently used
// entry when over capacity.
func (c *lruCache) Put(key string, val *Value) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}
