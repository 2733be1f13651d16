package pathhist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pathhist/internal/workload"
)

// quiescentBatches splits a store into n time-disjoint stores at trajectory
// boundaries where the next trajectory starts strictly after every earlier
// one has ended — the precondition of Engine.Extend. It returns fewer
// stores when the data has too few quiescent boundaries.
func quiescentBatches(s *Store, n int) []*Store {
	s.SortByStart()
	var maxEnd int64
	var bounds []int // quiescent cut positions (exclusive prefix ends)
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(TrajID(i))
		if i > 0 && tr.StartTime() > maxEnd {
			bounds = append(bounds, i)
		}
		last := tr.Seq[len(tr.Seq)-1]
		if end := last.T + int64(last.TT); end > maxEnd {
			maxEnd = end
		}
	}
	// Pick up to n-1 cuts, evenly spread over the available boundaries.
	var cuts []int
	if want := n - 1; want > 0 && len(bounds) > 0 {
		if want > len(bounds) {
			want = len(bounds)
		}
		for k := 1; k <= want; k++ {
			cuts = append(cuts, bounds[k*len(bounds)/(want+1)])
		}
	}
	cuts = append(cuts, s.Len())
	out := make([]*Store, 0, len(cuts))
	start := 0
	for _, c := range cuts {
		if c <= start {
			continue
		}
		st := NewStore()
		for i := start; i < c; i++ {
			tr := s.Get(TrajID(i))
			st.Add(tr.User, append([]Entry(nil), tr.Seq...))
		}
		out = append(out, st)
		start = c
	}
	return out
}

// TestConcurrentQueryAndExtend hammers one shared engine with query traffic
// while the main goroutine ingests batches through Extend (run under -race
// in CI). It asserts the tentpole contract end to end: queries never fail
// or block during ingestion, observed epochs are monotone, no cached result
// crosses an epoch boundary, and immediately after each Extend the engine's
// answers equal a reference engine rebuilt from scratch over the cumulative
// data — i.e. the new batch is served with no rebuild and no stale cache
// leakage.
func TestConcurrentQueryAndExtend(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	batches := quiescentBatches(ds.Store, 4)
	if len(batches) < 2 {
		t.Fatal("dataset has no quiescent split point")
	}
	eng, err := NewEngine(ds.G, batches[0], Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Background traffic: mixed periodic and fixed queries over base-half
	// paths, with interval bounds that stay identical across epochs so the
	// cache keys collide across the boundary and the epoch stamps do the
	// isolating.
	const until = int64(1) << 40
	var paths []Path
	for i := 0; i < batches[0].Len() && len(paths) < 8; i += 5 {
		tr := batches[0].Get(TrajID(i))
		if tr.Len() >= 2 {
			paths = append(paths, tr.Path())
		}
	}
	mkBg := func(i int) Query {
		q := Query{Path: paths[i%len(paths)], Beta: 20}
		if i%2 == 0 {
			q.Periodic = true
			q.Around = int64(i%24) * 3600
		} else {
			q.Until = until
		}
		return q
	}

	done := make(chan struct{})
	errs := make(chan error, 8)
	var lastEpoch atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var seen uint64
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := eng.Query(mkBg(i))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if res.Histogram == nil || res.Histogram.Total() == 0 {
					errs <- fmt.Errorf("goroutine %d: empty histogram", g)
					return
				}
				if res.Epoch < seen {
					errs <- fmt.Errorf("goroutine %d: epoch went backwards %d -> %d", g, seen, res.Epoch)
					return
				}
				seen = res.Epoch
				if res.Epoch > lastEpoch.Load() {
					errs <- fmt.Errorf("goroutine %d: observed unpublished epoch %d", g, res.Epoch)
					return
				}
			}
		}(g)
	}

	// The probe query is issued only by this goroutine, so full-cache hit
	// expectations around each Extend are deterministic.
	probe := Query{Path: paths[0], Until: until, Beta: 20}
	cumulative := NewStore()
	addAll := func(src *Store) {
		for i := 0; i < src.Len(); i++ {
			tr := src.Get(TrajID(i))
			cumulative.Add(tr.User, append([]Entry(nil), tr.Seq...))
		}
	}
	addAll(batches[0])
	fail := func(format string, args ...any) {
		close(done)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	for bi, batch := range batches[1:] {
		if _, err := eng.Query(probe); err != nil { // warm the probe's cache entries
			fail("batch %d: pre-extend probe: %v", bi, err)
		}
		if warm, err := eng.Query(probe); err != nil || !warm.FullCacheHit {
			fail("batch %d: probe not warmed: %v %+v", bi, err, warm)
		}
		// Publish the upcoming epoch bound before Extend so a background
		// query that races ahead onto the new snapshot never trips the
		// "unpublished epoch" check.
		lastEpoch.Store(uint64(bi + 1))
		if _, err := eng.Extend(batch); err != nil {
			fail("batch %d: Extend: %v", bi, err)
		}
		if got, want := eng.Epoch(), uint64(bi+1); got != want {
			fail("batch %d: epoch = %d, want %d", bi, got, want)
		}
		addAll(batch)
		ref, err := NewEngine(ds.G, cumulative, Options{DisableCache: true, DisableFullResultCache: true})
		if err != nil {
			fail("batch %d: reference engine: %v", bi, err)
		}
		want, err := ref.Query(probe)
		if err != nil {
			fail("batch %d: reference probe: %v", bi, err)
		}
		post, err := eng.Query(probe)
		if err != nil {
			fail("batch %d: post-extend probe: %v", bi, err)
		}
		if post.FullCacheHit {
			fail("batch %d: stale full result served across the epoch boundary", bi)
		}
		if err := sameResults(want, post); err != nil {
			fail("batch %d: post-extend probe diverges from rebuilt reference: %v", bi, err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The epoch churn must have dropped stale entries somewhere — eagerly
	// (each publication sweeps both caches) or lazily (queries racing a
	// publication on their pinned epoch). The probe's full-result entry
	// alone guarantees at least one per extend.
	if cs, fs := eng.CacheStats(), eng.FullCacheStats(); cs.Invalidations+fs.Invalidations+cs.Purges+fs.Purges == 0 {
		t.Fatalf("no cache invalidations or purges across %d extends: sub %+v full %+v",
			len(batches)-1, cs, fs)
	}
}
