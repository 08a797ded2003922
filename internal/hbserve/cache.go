package hbserve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// RouteCache is a sharded LRU cache of rendered response bodies with
// per-key singleflight deduplication: concurrent requests for the same
// key compute once and all receive the same byte slice. Keys are the
// full query identity ("route|m|n|u|v"), values are the final JSON
// bytes — caching after rendering is what makes responses
// byte-identical regardless of concurrency or cache state.
//
// Sharding by key hash keeps the per-shard mutex off the hot path under
// concurrent load; each shard holds its own LRU list so eviction is
// O(1) and shard-local.
type RouteCache struct {
	shards []cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
	dedups atomic.Uint64 // calls that waited on another's computation
}

// DefaultCacheShards balances lock spreading against per-shard LRU
// fragmentation.
const DefaultCacheShards = 16

// NewRouteCache returns a cache of at most capacity entries spread over
// shards (rounded up to a power of two). capacity <= 0 disables
// caching: GetOrCompute always computes, singleflight still applies.
func NewRouteCache(capacity, shards int) *RouteCache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	shards = pow
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + shards - 1) / shards
	}
	c := &RouteCache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].flight = make(map[string]*flightCall)
	}
	return c
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int
	items  map[string]*list.Element
	lru    *list.List // front = most recent; values are *cacheEntry
	flight map[string]*flightCall
}

type cacheEntry struct {
	key string
	val []byte
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// GetOrCompute returns the cached bytes for key, or runs compute
// exactly once across all concurrent callers and caches its result.
// The returned slice is shared — callers must not mutate it. hit
// reports a cache hit (a singleflight wait counts as a miss for the
// caller even though the computation ran elsewhere).
func (c *RouteCache) GetOrCompute(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	s := &c.shards[fnv1a(key)&uint64(len(c.shards)-1)]

	s.mu.Lock()
	if e, ok := s.items[key]; ok {
		s.lru.MoveToFront(e)
		val = e.Value.(*cacheEntry).val
		s.mu.Unlock()
		c.hits.Add(1)
		return val, true, nil
	}
	if fc, ok := s.flight[key]; ok {
		s.mu.Unlock()
		c.dedups.Add(1)
		<-fc.done
		return fc.val, false, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	s.flight[key] = fc
	s.mu.Unlock()
	c.misses.Add(1)

	func() {
		// A panicking compute (constructive code panics on internal
		// inconsistencies) must still release the waiters.
		defer func() {
			if r := recover(); r != nil {
				fc.err = fmt.Errorf("hbserve: compute panicked: %v", r)
			}
			close(fc.done)
		}()
		fc.val, fc.err = compute()
	}()

	s.mu.Lock()
	delete(s.flight, key)
	if fc.err == nil && s.cap > 0 {
		e := s.lru.PushFront(&cacheEntry{key: key, val: fc.val})
		s.items[key] = e
		for s.lru.Len() > s.cap {
			oldest := s.lru.Back()
			s.lru.Remove(oldest)
			delete(s.items, oldest.Value.(*cacheEntry).key)
		}
	}
	s.mu.Unlock()
	return fc.val, false, fc.err
}

// Stats returns cumulative hit / miss / deduplicated-call counters.
func (c *RouteCache) Stats() (hits, misses, dedups uint64) {
	return c.hits.Load(), c.misses.Load(), c.dedups.Load()
}

// Len returns the number of resident entries across all shards.
func (c *RouteCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// fnv1a is the 64-bit FNV-1a hash with the murmur3 fmix64 finalizer,
// inlined to keep the shard pick allocation-free. Plain FNV-1a leaves
// strings that differ in their last bytes ("url#1", "url#2") close
// together in the high bits, which clusters consistent-hash ring
// points and keys; the finalizer spreads every input bit over the
// whole word (TestRingBalanceAcrossPorts).
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return fmix64(h)
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fmix64 is murmur3's 64-bit finalizer, an avalanching bijection.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
