package service

import (
	"container/list"
	"sync"
)

// lru is the bookkeeping of a map with string keys bounded to its most
// recently used entries, shared by Cache and KeyMemo. Its owner locks.
type lru[V any] struct {
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	onEvict    func(V) // nil = no hook
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an empty lru bounded to maxEntries (>= 1) that hands
// each value it evicts to onEvict.
func newLRU[V any](maxEntries int, onEvict func(V)) lru[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return lru[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		onEvict:    onEvict,
	}
}

// get returns the value under key and marks it most recently used.
func (l *lru[V]) get(key string) (V, bool) { return l.use(l.items[key]) }

// getBytes is get for a key held as bytes; the lookup does not copy
// them.
func (l *lru[V]) getBytes(key []byte) (V, bool) { return l.use(l.items[string(key)]) }

func (l *lru[V]) use(el *list.Element) (v V, ok bool) {
	if el == nil {
		return v, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// add files v under key as most recently used and evicts least recently
// used entries past the bound. If key is present it only marks it most
// recently used, keeps the value filed first and reports false.
func (l *lru[V]) add(key string, v V) bool {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		return false
	}
	l.items[key] = l.ll.PushFront(&lruItem[V]{key: key, val: v})
	for l.ll.Len() > l.maxEntries {
		old := l.ll.Remove(l.ll.Back()).(*lruItem[V])
		delete(l.items, old.key)
		if l.onEvict != nil {
			l.onEvict(old.val)
		}
	}
	return true
}

func (l *lru[V]) len() int { return l.ll.Len() }

// Cache is the content-addressed result store: key = canonical request
// hash, value = the exact response bytes served for it, plus the origin
// that produced them (the fabric coordinator records the worker; a
// daemon records its own worker ID). Entries are immutable once stored
// (determinism means there is never a fresher answer), so the only
// management policy needed is LRU bounding.
type Cache struct {
	mu      sync.Mutex
	results lru[cacheEntry]

	hits      uint64
	misses    uint64
	evictions uint64
	bytes     int64
}

type cacheEntry struct {
	origin string
	body   []byte
}

// NewCache returns a cache bounded to maxEntries results (>= 1).
func NewCache(maxEntries int) *Cache {
	c := &Cache{}
	c.results = newLRU(maxEntries, func(e cacheEntry) {
		c.bytes -= int64(len(e.body))
		c.evictions++
	})
	return c
}

// Get returns the stored bytes for key and the origin they were stored
// with. The returned slice is shared and must not be modified.
func (c *Cache) Get(key string) (body []byte, origin string, ok bool) {
	if key == "" {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.results.get(key)
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	return e.body, e.origin, true
}

// Put stores body, produced by origin, under key, evicting
// least-recently-used entries to stay within the bound. Storing an
// existing key refreshes its recency; the body is identical by
// construction, and the first origin is kept.
func (c *Cache) Put(key, origin string, body []byte) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.results.add(key, cacheEntry{origin: origin, body: body}) {
		c.bytes += int64(len(body))
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:   c.results.len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRatio = float64(c.hits) / float64(total)
	}
	return s
}
