package grid

import (
	"container/list"
	"sync"
)

// Cache memoizes constructed grids by content key (topology, L, W).
//
// A Graph is immutable after construction — every accessor documents that
// its return value must not be modified — which PR 2 already exploits to
// share one grid across all workers of a sweep. The cache extends that
// guarantee process-wide: service requests, sweep units, and router-fanned
// units that agree on (topology, L, W) all receive the *same* *Hex, built
// exactly once. Sharing the pointer is not just an allocation win: an
// arena re-slices its storage whenever the topology pointer changes
// (core.Arena keys reuse on pointer identity), so a process-wide grid
// keeps core.Run's idle arenas hot across requests, not only within one
// sweep.
//
// The cache is bounded by entry count with LRU eviction — grids range from
// a few KB (L20_W12) to hundreds of MB (L1000_W500), so campaigns cycling
// through many shapes cannot pin unbounded memory. Eviction only drops the
// cache's reference; in-flight runs keep theirs alive.
//
// Construction is single-flighted: concurrent first requests for one shape
// block on a single build instead of duplicating it. Errors are returned
// to every waiter but never cached (invalid dimensions are rejected by
// validation long before reaching the cache in normal operation).
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used

	hits, misses uint64
}

// cacheKey is the content identity of a grid: everything NewHex/NewHexPlus
// read when constructing it.
type cacheKey struct {
	plus bool
	l, w int
}

// cacheSlot is one cache entry. done is closed when the build finishes;
// waiters joining an in-flight build block on it outside the cache lock.
type cacheSlot struct {
	key  cacheKey
	done chan struct{}
	h    *Hex
	err  error
}

// NewCache returns a cache bounded to max completed grids (max <= 0 means
// unbounded).
func NewCache(max int) *Cache {
	return &Cache{
		max:     max,
		entries: make(map[cacheKey]*list.Element),
		order:   list.New(),
	}
}

// Hex returns the memoized cylindric HEX grid for (L, W), building it on
// first use.
func (c *Cache) Hex(L, W int) (*Hex, error) { return c.get(cacheKey{false, L, W}) }

// HexPlus returns the memoized Section-5 augmented grid for (L, W),
// building it on first use.
func (c *Cache) HexPlus(L, W int) (*Hex, error) { return c.get(cacheKey{true, L, W}) }

// Build returns the memoized grid for the given topology selector; it is
// the common entry point for callers that carry "plus" as a flag.
func (c *Cache) Build(L, W int, plus bool) (*Hex, error) {
	return c.get(cacheKey{plus, L, W})
}

// Len returns the number of cached (completed or in-flight) grids.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit/miss counters since construction. A join of an
// in-flight build counts as a hit: the caller did not pay for a build.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *Cache) get(k cacheKey) (*Hex, error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.order.MoveToFront(el)
		slot := el.Value.(*cacheSlot)
		c.mu.Unlock()
		<-slot.done
		return slot.h, slot.err
	}
	c.misses++
	slot := &cacheSlot{key: k, done: make(chan struct{})}
	el := c.order.PushFront(slot)
	c.entries[k] = el
	c.mu.Unlock()

	// Build outside the lock: a 500k-node build must not stall lookups of
	// unrelated shapes.
	slot.h, slot.err = construct(k)
	close(slot.done)

	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[k]; ok && cur == el {
		if slot.err != nil {
			// Failed builds are not worth a slot; the error already reached
			// every waiter via the closed channel.
			c.order.Remove(el)
			delete(c.entries, k)
		} else {
			c.evictLocked()
		}
	}
	return slot.h, slot.err
}

// evictLocked drops least-recently-used *completed* entries until the
// count bound holds. In-flight builds are skipped: evicting one would
// strand waiters and rebuild work already underway.
func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for el := c.order.Back(); el != nil && len(c.entries) > c.max; {
		slot := el.Value.(*cacheSlot)
		prev := el.Prev()
		select {
		case <-slot.done:
			c.order.Remove(el)
			delete(c.entries, slot.key)
		default:
		}
		el = prev
	}
}

func construct(k cacheKey) (*Hex, error) {
	if k.plus {
		return NewHexPlus(k.l, k.w)
	}
	return NewHex(k.l, k.w)
}

// Shared is the process-wide grid cache used by the service and experiment
// layers. 32 shapes is generous for real workloads (campaigns sweep seeds
// and faults far more than grid shapes) while bounding worst-case memory
// to a few large grids.
var Shared = NewCache(32)
