package query

import (
	"sync"
	"sync/atomic"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// Result caching. Two caches share one sharded-LRU implementation, both
// keyed by the strict-path-query tuple (path, interval, filter, β):
//
//   - the sub-result cache memoises sub-query scans that retrieved samples:
//     an entry holds their count, exact sum and histogram (subValue), never
//     the samples themselves, so its size follows the histogram's span and
//     not the sample count. A scan that failed its β requirement is not
//     stored — the time-of-day census (snt.Index.CannotReach, asked before
//     this cache is) rejects most failing rungs in a few adds, less than a
//     lookup costs, and the rest are recomputed; on the benchmark's
//     route_cold mix storing them filled the LRU with 723 k empty entries
//     per 6 000 requests. The terminal [0, tmax] answers of a segment with
//     data, ≈ 8 k samples each, are not kept here either: the index's own
//     terminal-fallback memo (snt.Index.WholeSegment), asked just before
//     this cache, holds one per segment for the snapshot's lifetime, so
//     the LRU's slots go to the periodic rungs and multi-segment paths;
//   - the full-result cache memoises the final convolved histogram and
//     final sub-queries of a whole TripQuery, so a repeated trip skips
//     partitioning, scanning and convolution entirely.
//
// A cache entry is a proven fact about one index epoch — the immutable
// snapshot the scan ran against — so every entry is stamped with that epoch
// at insertion. Entries never expire within their epoch and are evicted for
// capacity (LRU); after an Extend publishes a new epoch, entries from older
// epochs are invalid facts and are dropped lazily: a lookup that finds an
// entry from a different epoch removes it, counts an invalidation, and
// reports a miss, so no cached result ever crosses an epoch boundary and a
// batch ingest costs no stop-the-world cache sweep. Each cache is sharded
// by key hash to keep lock contention negligible under concurrent query
// traffic, and each shard maintains its own LRU list.
//
// β is part of the key even though the shorthand is (path, interval,
// filter): Procedure 5 stops scanning after β matches and rejects periodic
// intervals with fewer than β matches, so the same (P, I, f) can yield
// different sample sets under different β.

// cacheShards must be a power of two.
const cacheShards = 16

// DefaultCacheCapacity is the total number of sub-results an engine caches.
const DefaultCacheCapacity = 4096

// DefaultFullCacheCapacity is the total number of full results an engine
// caches.
const DefaultFullCacheCapacity = 1024

// subValue is the payload of one cached sub-result: the sufficient
// statistics of a non-empty sample set — count, exact sum, histogram — and
// the fallback flag. The histogram is shared by every Result that hits the
// entry and must be treated as immutable by all readers. An entry's size is
// its histogram's — 8 bytes per bucket between the sample extremes plus a
// 48-byte header (hist.SizeBytes) — and its key and linkage, whatever the
// number of samples behind it. The entries are the answers the terminal
// memo does not give: accepted periodic rungs, multi-segment and
// user-filtered rungs, speed-limit fallbacks, and terminal answers that
// exclude a trajectory.
type subValue struct {
	n        int
	sum      int64
	hist     *hist.Histogram
	fallback bool
}

// fullValue is the payload of one cached full result: the convolved
// histogram and the final sub-queries of a completed TripQuery. Both are
// shared with every Result that hits the entry and must be treated as
// immutable.
type fullValue struct {
	hist *hist.Histogram
	subs []SubResult
}

// cacheEntry is one cached result plus its LRU linkage.
type cacheEntry[V any] struct {
	hash  uint64
	path  network.Path // private copy, never aliased to caller memory
	iv    snt.Interval
	f     snt.Filter
	beta  int
	epoch uint64 // index epoch the value was computed against
	val   V

	prev, next *cacheEntry[V]
}

func (en *cacheEntry[V]) matches(p network.Path, iv snt.Interval, f snt.Filter, beta int) bool {
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
type cacheShard[V any] struct {
	mu         sync.Mutex
	m          map[uint64]*cacheEntry[V]
	head, tail *cacheEntry[V]
	capacity   int
}

func (s *cacheShard[V]) unlink(en *cacheEntry[V]) {
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

func (s *cacheShard[V]) pushFront(en *cacheEntry[V]) {
	en.next = s.head
	if s.head != nil {
		s.head.prev = en
	}
	s.head = en
	if s.tail == nil {
		s.tail = en
	}
}

// spqCache is a sharded LRU cache keyed by the strict-path-query tuple,
// shared by all queries of one Engine.
type spqCache[V any] struct {
	shards [cacheShards]cacheShard[V]
	hits   atomic.Int64
	misses atomic.Int64
	stale  atomic.Int64 // cross-epoch entries dropped lazily on lookup
	purges atomic.Int64 // stale entries removed eagerly on epoch publication
}

// newSPQCache returns a cache holding up to capacity entries in total.
func newSPQCache[V any](capacity int) *spqCache[V] {
	per := (capacity + cacheShards - 1) / cacheShards
	c := &spqCache[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*cacheEntry[V])
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

func (c *spqCache[V]) shard(hash uint64) *cacheShard[V] {
	return &c.shards[hash&(cacheShards-1)]
}

// get returns the cached value for the key, marking the entry most recently
// used. The returned value's contents are shared and immutable. An entry
// whose key matches but whose epoch differs is a stale fact about an older
// (or, for a reader still on a pre-extend snapshot, a newer) index state:
// it is removed, reported through stale (and the Stale counter), and the
// lookup is a miss — a cached value never crosses an epoch boundary.
func (c *spqCache[V]) get(p network.Path, iv snt.Interval, f snt.Filter, beta int, epoch uint64) (val V, ok, stale bool) {
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

// book counts a lookup answered outside the LRU — a terminal-fallback memo
// reuse (hit) or fill (miss) — so the cache statistics keep covering every
// memoised answer.
func (c *spqCache[V]) book(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// put stores a completed result computed against the given index epoch. The
// path is copied; the value is retained as-is (and shared with the Result
// that produced it), so its contents must never be mutated or recycled.
func (c *spqCache[V]) put(p network.Path, iv snt.Interval, f snt.Filter, beta int, epoch uint64, val V) {
	hash := cacheHash(p, iv, f, beta)
	en := &cacheEntry[V]{
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
// release, not a correctness mechanism. Returns the number of purged
// entries (also accumulated in CacheStats.Purges).
func (c *spqCache[V]) purgeStale(epoch uint64) int {
	if c == nil {
		return 0
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
	return purged
}

// Len returns the number of cached entries.
func (c *spqCache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats reports cumulative lookup traffic across all queries. Every
// lookup is one a query's driver asked for, so the sub-result cache's Hits
// is the sum of the per-Result CacheHits. Its Misses can be fewer than the
// summed CacheMisses: a Result books every index scan as a miss, including
// windows the census rejects before any lookup. Invalidations counts
// cross-epoch entries dropped lazily on lookup after an Extend (each is also
// a miss); Purges counts stale-epoch entries removed eagerly by the sweep an
// epoch publication triggers (those never surface as lookup traffic).
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Purges        int64
	Entries       int
}

// Stats snapshots the cache counters.
func (c *spqCache[V]) Stats() CacheStats {
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
