package erasure

import "container/list"

// lruCache is a small string-keyed LRU used for two caches on the
// decode path: the package-level (m, n) -> *Code cache and the
// per-Code cache of inverted decoding matrices. It is not safe for
// concurrent use; callers hold their own lock.
type lruCache struct {
	cap   int
	items map[string]*list.Element
	order list.List // front = most recently used; values are *lruEntry
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	c := &lruCache{cap: capacity, items: make(map[string]*list.Element, capacity)}
	c.order.Init()
	return c
}

// get looks key up by its bytes: the lookup copies nothing, so a hit
// allocates nothing.
func (c *lruCache) get(key []byte) (any, bool) {
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	if len(c.items) >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry).key)
		}
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
}

func (c *lruCache) len() int { return len(c.items) }
