package query

import (
	"sync"
	"testing"
)

// TestFullResultCacheHit: a repeated query is served whole from the
// full-result cache — semantically identical to recomputation, marked as a
// full hit, with no processing effort booked.
func TestFullResultCacheHit(t *testing.T) {
	ix, qs := parEnv(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	for i, q := range qs {
		cold := eng.TripQuery(q)
		if cold.FullCacheHit {
			t.Fatalf("query %d: cold run reported a full-cache hit", i)
		}
		warm := eng.TripQuery(q)
		if !warm.FullCacheHit {
			t.Fatalf("query %d: warm re-run missed the full-result cache", i)
		}
		if err := sameResult(&cold, &warm); err != nil {
			t.Fatalf("query %d: full-cache hit differs from computation: %v", i, err)
		}
		if warm.IndexScans != 0 || warm.CacheHits != 0 || warm.CacheMisses != 0 || warm.EstimatorSkips != 0 {
			t.Fatalf("query %d: full-cache hit booked effort: %+v", i, warm)
		}
	}
	st := eng.FullCache()
	if st.Hits != int64(len(qs)) || st.Entries == 0 {
		t.Fatalf("full-cache stats = %+v, want %d hits", st, len(qs))
	}
}

// TestFullResultCacheKey: β participates in the key (Procedure 5 truncates
// at β), so the same trip under a different β is a miss.
func TestFullResultCacheKey(t *testing.T) {
	ix, qs := parEnv(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	q := qs[0]
	_ = eng.TripQuery(q)
	q2 := q
	q2.Beta = q.Beta + 5
	if res := eng.TripQuery(q2); res.FullCacheHit {
		t.Fatal("different β must not hit the full-result cache")
	}
}

// TestFullResultCacheDisabled: the escape hatch keeps every run a full
// computation.
func TestFullResultCacheDisabled(t *testing.T) {
	ix, qs := parEnv(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableFullResultCache: true})
	q := qs[0]
	_ = eng.TripQuery(q)
	warm := eng.TripQuery(q)
	if warm.FullCacheHit {
		t.Fatal("full-result cache served a hit while disabled")
	}
	if st := eng.FullCache(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled full cache recorded traffic: %+v", st)
	}
}

// TestFullResultCacheConcurrent hammers one engine with repeated identical
// queries from many goroutines under -race: every result, hit or miss, must
// match the sequential reference.
func TestFullResultCacheConcurrent(t *testing.T) {
	ix, qs := parEnv(t)
	ref := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true})
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = ref.TripQuery(q)
	}
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range qs {
					j := (i + g) % len(qs)
					got := eng.TripQuery(qs[j])
					if err := sameResult(&want[j], &got); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.FullCache(); st.Hits == 0 {
		t.Fatalf("no full-cache hits under concurrent repeats: %+v", st)
	}
}
