package memo

import "sync"

// shards is the fixed shard count of every Cache. It is a power of two,
// so the shard index is a mask over the folded hash.
const shards = 64

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	// Pad the shard to a 64-byte stride so neighbouring shard mutexes
	// never share a cache line under write-heavy load.
	_ [48]byte
}

// Cache is a concurrent bounded map split across 64 shards by a
// caller-supplied hash, so goroutines contend only when their keys land
// on the same shard. The hash picks the shard; the key is the map key,
// and may embed the hash or be the hash itself.
//
// A Cache is ready to use from its zero value: shard maps are allocated
// on first insert.
type Cache[K comparable, V any] struct {
	shards [shards]shard[K, V]
}

// shardFor folds the high hash bits into the shard index, so hashes that
// differ only above bit 6 still spread across shards.
//
//lint:allocfree
func (c *Cache[K, V]) shardFor(h uint64) *shard[K, V] {
	return &c.shards[(h^(h>>32))&(shards-1)]
}

// Get returns the value stored under key in h's shard.
//
//lint:allocfree
func (c *Cache[K, V]) Get(h uint64, key K) (V, bool) {
	s := c.shardFor(h)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under key in h's shard and returns how many entries it
// evicted to make room. A budget > 0 caps the whole cache at budget
// entries, split evenly across the shards: a shard already holding its
// share (budget/64, at least 1) is first trimmed to half of that share.
// Go's randomized map iteration picks the victims, so long-lived entries
// survive on average while dead ones drain, without per-entry expiry
// bookkeeping; a full reset would discard them along with the churn.
// budget <= 0 means unbounded, for key spaces bounded by construction.
func (c *Cache[K, V]) Put(h uint64, key K, v V, budget int) (evicted int) {
	s := c.shardFor(h)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]V)
	}
	if limit := max(budget/shards, 1); budget > 0 && len(s.m) >= limit {
		keep := limit / 2
		for k := range s.m {
			if len(s.m) <= keep {
				break
			}
			delete(s.m, k)
			evicted++
		}
	}
	s.m[key] = v
	s.mu.Unlock()
	return evicted
}
