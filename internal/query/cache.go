package query

import (
	"sync"
	"sync/atomic"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// Memoisation. The engine memoises at two levels, and nowhere else:
//
//   - the index's terminal-fallback memo (snt.Index.WholeSegment) answers
//     the whole-segment [0, tmax] rung, ≈ 8 k samples each, once per
//     segment for the snapshot's lifetime; Engine.attempt asks it before
//     any scan, and Engine.Cache counts its reuses as hits and the scans
//     that reached the index as misses;
//   - the full-result cache below memoises the final convolved histogram
//     and final sub-queries of a whole TripQuery, keyed by the strict-path-
//     query tuple (path, interval, filter, β), so a repeated trip skips
//     partitioning, scanning and convolution entirely.
//
// No level memoises one periodic or multi-segment rung for reuse by a
// different query: the full-result cache catches an exact repeat of a
// whole trip first, and within one query the relaxation ladder never asks
// the same key twice, so such a level answers nothing (0 hits on every
// benchmark workload). A new memo level has to show a measured hit ratio.
//
// A cache entry is a proven fact about one index epoch — the immutable
// snapshot the query ran against — so every entry is stamped with that
// epoch at insertion. Entries never expire within their epoch and are
// evicted for capacity (LRU); after an Extend publishes a new epoch,
// entries from older epochs are invalid facts: the publication purges them
// (purgeStale), and a lookup racing it that finds an entry from a
// different epoch removes it, counts an invalidation, and reports a miss,
// so no cached result ever crosses an epoch boundary. The cache is sharded
// by key hash to keep lock contention negligible under concurrent query
// traffic, and each shard maintains its own LRU list.
//
// β is part of the key even though the shorthand is (path, interval,
// filter): Procedure 5 stops scanning after β matches and rejects periodic
// intervals with fewer than β matches, so the same (P, I, f) can yield
// different sample sets under different β.

// cacheShards must be a power of two.
const cacheShards = 16

// DefaultFullCacheCapacity is the total number of full results an engine
// caches.
const DefaultFullCacheCapacity = 1024

// fullValue is the payload of one cached full result: the convolved
// histogram and the final sub-queries of a completed TripQuery. Both are
// shared with every Result that hits the entry and must be treated as
// immutable.
type fullValue struct {
	hist *hist.Histogram
	subs []SubResult
}

// cacheEntry is one cached result plus its LRU linkage.
type cacheEntry struct {
	hash  uint64
	path  network.Path // private copy, never aliased to caller memory
	iv    snt.Interval
	f     snt.Filter
	beta  int
	epoch uint64 // index epoch the value was computed against
	val   fullValue

	prev, next *cacheEntry
}

func (en *cacheEntry) matches(p network.Path, iv snt.Interval, f snt.Filter, beta int) bool {
	if en.iv != iv || en.f != f || en.beta != beta || len(en.path) != len(p) {
		return false
	}
	for i, e := range p {
		if en.path[i] != e {
			return false
		}
	}
	return true
}

// cacheShard is one lock domain: a hash map for lookup plus an intrusive
// doubly-linked LRU list (head = most recent).
type cacheShard struct {
	mu         sync.Mutex
	m          map[uint64]*cacheEntry
	head, tail *cacheEntry
	capacity   int
}

func (s *cacheShard) unlink(en *cacheEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		s.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		s.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

func (s *cacheShard) pushFront(en *cacheEntry) {
	en.next = s.head
	if s.head != nil {
		s.head.prev = en
	}
	s.head = en
	if s.tail == nil {
		s.tail = en
	}
}

// spqCache is the full-result cache: a sharded LRU keyed by the
// strict-path-query tuple, shared by all queries of one Engine.
type spqCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
	stale  atomic.Int64 // cross-epoch entries dropped lazily on lookup
	purges atomic.Int64 // stale entries removed eagerly on epoch publication
}

// newSPQCache returns a cache holding up to capacity entries in total.
func newSPQCache(capacity int) *spqCache {
	per := (capacity + cacheShards - 1) / cacheShards
	c := &spqCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*cacheEntry)
		c.shards[i].capacity = per
	}
	return c
}

// cacheHash is FNV-1a over the full query key.
func cacheHash(p network.Path, iv snt.Interval, f snt.Filter, beta int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, e := range p {
		mix(uint64(uint32(e)))
	}
	mix(uint64(iv.Kind))
	mix(uint64(iv.Start))
	mix(uint64(iv.End))
	mix(uint64(iv.TodStart))
	mix(uint64(iv.Width))
	mix(uint64(uint32(f.User)))
	mix(uint64(uint32(f.ExcludeTraj)))
	mix(uint64(beta))
	return h
}

func (c *spqCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&(cacheShards-1)]
}

// get returns the cached value for the key, marking the entry most recently
// used. The returned value's contents are shared and immutable. An entry
// whose key matches but whose epoch differs is a stale fact about an older
// (or, for a reader still on a pre-extend snapshot, a newer) index state:
// it is removed, reported through stale (and the Invalidations counter),
// and the lookup is a miss — a cached value never crosses an epoch
// boundary.
func (c *spqCache) get(p network.Path, iv snt.Interval, f snt.Filter, beta int, epoch uint64) (val fullValue, ok, stale bool) {
	hash := cacheHash(p, iv, f, beta)
	s := c.shard(hash)
	s.mu.Lock()
	en := s.m[hash]
	if en != nil && en.matches(p, iv, f, beta) {
		if en.epoch == epoch {
			if s.head != en {
				s.unlink(en)
				s.pushFront(en)
			}
			val = en.val
			ok = true
		} else {
			s.unlink(en)
			delete(s.m, hash)
			stale = true
		}
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		if stale {
			c.stale.Add(1)
		}
	}
	return
}

// put stores a completed result computed against the given index epoch. The
// path is copied; the value is retained as-is (and shared with the Result
// that produced it), so its contents must never be mutated.
func (c *spqCache) put(p network.Path, iv snt.Interval, f snt.Filter, beta int, epoch uint64, val fullValue) {
	hash := cacheHash(p, iv, f, beta)
	en := &cacheEntry{
		hash:  hash,
		path:  append(network.Path(nil), p...),
		iv:    iv,
		f:     f,
		beta:  beta,
		epoch: epoch,
		val:   val,
	}
	s := c.shard(hash)
	s.mu.Lock()
	if old := s.m[hash]; old != nil {
		s.unlink(old)
	}
	s.m[hash] = en
	s.pushFront(en)
	if len(s.m) > s.capacity {
		victim := s.tail
		s.unlink(victim)
		if s.m[victim.hash] == victim {
			delete(s.m, victim.hash)
		}
	}
	s.mu.Unlock()
}

// purgeStale eagerly removes every entry not stamped with the given epoch —
// the sweep an epoch publication (Extend, Compact) runs so stale entries
// release their memory immediately instead of waiting for LRU aging or a
// lazy same-key lookup. Queries racing the publication may still write (or
// read) entries of the epoch they pinned at entry; those are dropped lazily
// by the usual cross-epoch check, so the sweep is a best-effort pressure
// release, not a correctness mechanism. The purged entries are counted in
// CacheStats.Purges.
func (c *spqCache) purgeStale(epoch uint64) {
	if c == nil {
		return
	}
	purged := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for hash, en := range s.m {
			if en.epoch != epoch {
				s.unlink(en)
				delete(s.m, hash)
				purged++
			}
		}
		s.mu.Unlock()
	}
	if purged > 0 {
		c.purges.Add(int64(purged))
	}
}

// Len returns the number of cached entries.
func (c *spqCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats reports the cumulative traffic of one memo level. For the
// full-result cache (Engine.FullCache), Hits and Misses count lookups,
// Invalidations counts cross-epoch entries dropped lazily on lookup (each
// also a miss), Purges counts stale-epoch entries removed by the sweep an
// epoch publication triggers, and Entries is the number held. For the
// terminal-fallback memo (Engine.Cache), Hits and Misses are the sums of
// the per-Result CacheHits and CacheMisses over completed queries — memo
// reuses, and scans that reached the index — and the other fields stay
// zero: the memo lives on the index and is only ever filled.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Purges        int64
	Entries       int
}

// Stats snapshots the cache counters.
func (c *spqCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.stale.Load(),
		Purges:        c.purges.Load(),
		Entries:       c.Len(),
	}
}
