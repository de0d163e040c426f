package service

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result store: key = canonical request
// hash, value = the exact response bytes served for it, plus the origin
// that produced them (the fabric coordinator records the worker; a
// daemon records its own worker ID). Entries are immutable once stored
// (determinism means there is never a fresher answer), so the only
// management policy needed is LRU bounding.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
	bytes     int64
}

type cacheEntry struct {
	key    string
	origin string
	body   []byte
}

// NewCache returns a cache bounded to maxEntries results (>= 1).
func NewCache(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the stored bytes for key and the origin they were stored
// with. The returned slice is shared and must not be modified.
func (c *Cache) Get(key string) (body []byte, origin string, ok bool) {
	if key == "" {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
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
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, origin: origin, body: body})
	c.items[key] = el
	c.bytes += int64(len(body))
	for c.ll.Len() > c.maxEntries {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
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
		Entries:   c.ll.Len(),
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
