package query

import (
	"sync"
	"testing"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

func testKey(i int) (network.Path, snt.Interval, snt.Filter, int) {
	return network.Path{network.EdgeID(i), network.EdgeID(i + 1)},
		snt.NewPeriodic(int64(i)*60, 900), snt.NoFilter, 20
}

func TestCacheGetPut(t *testing.T) {
	c := newSubCache(64)
	p, iv, f, beta := testKey(1)
	if _, ok, _ := c.get(p, iv, f, beta, 0); ok {
		t.Fatal("hit on empty cache")
	}
	xs := []int{100, 110, 120}
	hg := hist.FromSamples(xs, 10)
	c.put(p, iv, f, beta, 0, subValue{xs: xs, hist: hg})
	v, ok, _ := c.get(p, iv, f, beta, 0)
	if !ok || v.fallback || v.hist != hg || len(v.xs) != 3 {
		t.Fatalf("get = %+v %v", v, ok)
	}
	// Key sensitivity: every component participates.
	if _, ok, _ := c.get(p[:1], iv, f, beta, 0); ok {
		t.Error("hit with different path")
	}
	if _, ok, _ := c.get(p, iv.Resize(1800), f, beta, 0); ok {
		t.Error("hit with different interval")
	}
	if _, ok, _ := c.get(p, iv, snt.Filter{User: 3, ExcludeTraj: -1}, beta, 0); ok {
		t.Error("hit with different filter")
	}
	if _, ok, _ := c.get(p, iv, f, beta+1, 0); ok {
		t.Error("hit with different beta")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheEpochInvalidation: an entry stamped with one epoch is never
// served at another; the mismatching lookup drops it lazily and counts an
// invalidation.
func TestCacheEpochInvalidation(t *testing.T) {
	c := newSubCache(64)
	p, iv, f, beta := testKey(1)
	c.put(p, iv, f, beta, 3, subValue{xs: []int{7}, hist: hist.FromSamples([]int{7}, 10)})
	if _, ok, stale := c.get(p, iv, f, beta, 4); ok || !stale {
		t.Fatalf("cross-epoch lookup: ok=%v stale=%v, want miss+stale", ok, stale)
	}
	// The stale entry is gone: the same lookup is now a clean miss.
	if _, ok, stale := c.get(p, iv, f, beta, 4); ok || stale {
		t.Fatalf("second lookup: ok=%v stale=%v, want clean miss", ok, stale)
	}
	// Re-populated under the new epoch it serves hits again.
	c.put(p, iv, f, beta, 4, subValue{xs: []int{9}, hist: hist.FromSamples([]int{9}, 10)})
	if v, ok, _ := c.get(p, iv, f, beta, 4); !ok || v.xs[0] != 9 {
		t.Fatalf("post-invalidation hit = %+v %v", v, ok)
	}
	// An old-epoch reader must not see the new-epoch entry either.
	if _, ok, stale := c.get(p, iv, f, beta, 3); ok || !stale {
		t.Fatal("new-epoch entry served to an old-epoch reader")
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newSubCache(cacheShards) // one entry per shard
	var paths []network.Path
	for i := 0; i < cacheShards*4; i++ {
		p, iv, f, beta := testKey(i)
		paths = append(paths, p)
		c.put(p, iv, f, beta, 0, subValue{xs: []int{i}, hist: hist.FromSamples([]int{i + 1}, 10)})
	}
	if n := c.Len(); n > cacheShards {
		t.Fatalf("cache holds %d entries, capacity %d", n, cacheShards)
	}
	// The survivors must still be retrievable and correct.
	found := 0
	for i, p := range paths {
		_, iv, f, beta := testKey(i)
		if v, ok, _ := c.get(p, iv, f, beta, 0); ok {
			found++
			if len(v.xs) != 1 || v.xs[0] != i {
				t.Fatalf("entry %d corrupted: %v", i, v.xs)
			}
		}
	}
	if found == 0 {
		t.Fatal("eviction removed everything")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := newSubCache(cacheShards * 2) // two entries per shard
	// Three keys that land in the same shard would be needed for a strict
	// LRU assertion; instead verify the weaker invariant directly per
	// shard: a re-accessed entry survives a subsequent insert that evicts.
	p0, iv, f, beta := testKey(0)
	c.put(p0, iv, f, beta, 0, subValue{xs: []int{0}, hist: hist.FromSamples([]int{1}, 10)})
	sh := c.shard(cacheHash(p0, iv, f, beta))
	// Fill the same shard with synthetic entries until eviction happens,
	// touching p0 before each insert so it stays most recently used.
	for i := 1; i < 64; i++ {
		p, piv, pf, pbeta := testKey(i)
		if c.shard(cacheHash(p, piv, pf, pbeta)) != sh {
			continue
		}
		c.get(p0, iv, f, beta, 0)
		c.put(p, piv, pf, pbeta, 0, subValue{xs: []int{i}, hist: hist.FromSamples([]int{i}, 10)})
	}
	if _, ok, _ := c.get(p0, iv, f, beta, 0); !ok {
		t.Fatal("most-recently-used entry was evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newSubCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p, iv, f, beta := testKey(i % 100)
				if v, ok, _ := c.get(p, iv, f, beta, 0); ok {
					if len(v.xs) != 1 || v.xs[0] != i%100 {
						t.Errorf("corrupt entry for key %d: %v", i%100, v.xs)
						return
					}
					continue
				}
				c.put(p, iv, f, beta, 0, subValue{xs: []int{i % 100}, hist: hist.FromSamples([]int{i%100 + 1}, 10)})
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("no lookups recorded: %+v", st)
	}
}

// TestSubCacheHoldsRetrievedSamplesOnly: a rung that fails its β requirement
// is recomputed, not memoised — after a cold run every entry carries
// samples and there is at most one per accepted sub-query, and the warm
// re-run takes every accepted sub-query from the cache while its failing
// rungs reach the index again.
func TestSubCacheHoldsRetrievedSamplesOnly(t *testing.T) {
	ix, qs := parEnv(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableFullResultCache: true, Workers: 1})
	accepted, failed := 0, 0
	for i, q := range qs {
		before := eng.Cache().Entries
		cold := eng.TripQuery(q)
		coldFailed := cold.IndexScans + cold.CacheHits - len(cold.Subs)
		if got := eng.Cache().Entries - before; got != len(cold.Subs)-cold.CacheHits {
			t.Fatalf("query %d: %d new entries for %d accepted scans (%d rungs failed)",
				i, got, len(cold.Subs)-cold.CacheHits, coldFailed)
		}
		warm := eng.TripQuery(q)
		if warm.CacheHits != len(warm.Subs) || warm.IndexScans != coldFailed {
			t.Fatalf("query %d warm: %d hits for %d subs, %d scans for %d failing rungs",
				i, warm.CacheHits, len(warm.Subs), warm.IndexScans, coldFailed)
		}
		accepted += len(cold.Subs)
		failed += coldFailed
	}
	if accepted == 0 || failed == 0 {
		t.Fatalf("workload exercised %d accepted and %d failing rungs", accepted, failed)
	}
	for i := range eng.cache.shards {
		for _, en := range eng.cache.shards[i].m {
			if len(en.val.xs) == 0 || en.val.hist == nil {
				t.Fatalf("entry without samples: path %v %v β=%d", en.path, en.iv, en.beta)
			}
		}
	}
}
