package query

import (
	"fmt"
	"sync"
	"testing"

	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// The tests in this file pin down that memoisation never changes an
// answer: the engine with its terminal memo, cold or warm and under
// concurrent load, produces exactly the uncached Procedure 6 result.

var (
	parEnvOnce sync.Once
	parIx      *snt.Index
	parQueries []SPQ
)

// parEnv builds a shared small synthetic dataset with a mixed query set:
// periodic, user-filtered periodic, and fixed-interval queries.
func parEnv(t testing.TB) (*snt.Index, []SPQ) {
	t.Helper()
	parEnvOnce.Do(func() {
		cfg := workload.SmallConfig()
		cfg.TargetTrips = 1500
		cfg.Days = 45
		ds := workload.BuildDataset(cfg)
		parIx = snt.Build(ds.G, ds.Store, snt.Options{})
		for i, q := range ds.MakeQueries(0.05, 5, cfg.Seed+1) {
			f := snt.Filter{User: traj.NoUser, ExcludeTraj: q.Traj}
			var iv snt.Interval
			switch i % 3 {
			case 0:
				iv = snt.PeriodicAround(q.T0, DefaultAlphas[0])
			case 1:
				iv = snt.PeriodicAround(q.T0, DefaultAlphas[0])
				f.User = q.User
			default:
				iv = snt.NewFixed(0, q.T0)
			}
			parQueries = append(parQueries, SPQ{Path: q.Path, Interval: iv, Filter: f, Beta: 20})
		}
	})
	if len(parQueries) == 0 {
		t.Fatal("no queries in parallel test env")
	}
	return parIx, parQueries
}

// sameHist compares two histograms bucket by bucket, from the bucket
// holding Min to the one holding Max.
func sameHist(a, b interface {
	Min() int
	Max() int
	Total() float64
	NumSamples() int
	BucketWidth() int
	Count(int) float64
}) error {
	if a.Min() != b.Min() || a.Max() != b.Max() || a.Total() != b.Total() || a.BucketWidth() != b.BucketWidth() || a.NumSamples() != b.NumSamples() {
		return fmt.Errorf("shape: min %d/%d max %d/%d total %v/%v n %d/%d",
			a.Min(), b.Min(), a.Max(), b.Max(), a.Total(), b.Total(), a.NumSamples(), b.NumSamples())
	}
	for x := a.Min() / a.BucketWidth() * a.BucketWidth(); x <= a.Max(); x += a.BucketWidth() {
		if a.Count(x) != b.Count(x) {
			return fmt.Errorf("bucket at %d: %v vs %v", x, a.Count(x), b.Count(x))
		}
	}
	return nil
}

// sameResult compares the semantically defined parts of two results: the
// final sub-queries (paths, effective intervals, filters, sample counts and
// sums, bucket-by-bucket histograms, fallback flags) and the convolved
// histogram.
func sameResult(a, b *Result) error {
	if len(a.Subs) != len(b.Subs) {
		return fmt.Errorf("sub count %d vs %d", len(a.Subs), len(b.Subs))
	}
	for i := range a.Subs {
		sa, sb := &a.Subs[i], &b.Subs[i]
		if len(sa.Path) != len(sb.Path) {
			return fmt.Errorf("sub %d path len %d vs %d", i, len(sa.Path), len(sb.Path))
		}
		for j := range sa.Path {
			if sa.Path[j] != sb.Path[j] {
				return fmt.Errorf("sub %d path[%d] %d vs %d", i, j, sa.Path[j], sb.Path[j])
			}
		}
		if sa.Interval != sb.Interval {
			return fmt.Errorf("sub %d interval %v vs %v", i, sa.Interval, sb.Interval)
		}
		if sa.Filter != sb.Filter || sa.Fallback != sb.Fallback {
			return fmt.Errorf("sub %d filter/fallback mismatch", i)
		}
		if sa.N != sb.N || sa.Sum != sb.Sum {
			return fmt.Errorf("sub %d samples (n %d, sum %d) vs (n %d, sum %d)", i, sa.N, sa.Sum, sb.N, sb.Sum)
		}
		if (sa.Hist == nil) != (sb.Hist == nil) {
			return fmt.Errorf("sub %d hist nil mismatch", i)
		}
		if sa.Hist != nil {
			if err := sameHist(sa.Hist, sb.Hist); err != nil {
				return fmt.Errorf("sub %d hist: %w", i, err)
			}
		}
	}
	if (a.Hist == nil) != (b.Hist == nil) {
		return fmt.Errorf("hist nil mismatch")
	}
	if a.Hist != nil {
		if err := sameHist(a.Hist, b.Hist); err != nil {
			return fmt.Errorf("hist: %w", err)
		}
	}
	return nil
}

// TestCachedMatchesUncached is the cache correctness test: for every query
// in the workload, the engine with the terminal memo reproduces the
// uncached result exactly, cold and warm, and on one goroutine the engine's
// cache counters move by exactly the hits and misses the results report.
func TestCachedMatchesUncached(t *testing.T) {
	ix, qs := parEnv(t)
	// The full-result cache is disabled throughout: this test pins down the
	// terminal memo and the effort counters of actual processing, which a
	// whole-result hit would short-circuit (see fullcache_test.go).
	base := Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableFullResultCache: true}

	seqCfg := base
	seqCfg.DisableCache = true
	seq := NewEngine(ix, seqCfg)

	cached := NewEngine(ix, base)

	// Every query again at β 2: windows that hold 20 records are rare at
	// αmin, so at β 20 most sub-queries relax before any is accepted, and
	// few later windows are shifted by accepted predecessors.
	all := append([]SPQ(nil), qs...)
	for _, q := range qs {
		q.Beta = 2
		all = append(all, q)
	}
	for i, q := range all {
		want := seq.TripQuery(q)
		before := cached.Cache()
		cold := cached.TripQuery(q)
		if err := sameResult(&want, &cold); err != nil {
			t.Fatalf("query %d cache cold: %v", i, err)
		}
		warm := cached.TripQuery(q)
		if err := sameResult(&want, &warm); err != nil {
			t.Fatalf("query %d cache warm: %v", i, err)
		}
		// The memo only fills within a snapshot: a warm re-run reuses
		// every terminal answer its cold run filled or reused.
		if warm.CacheHits < cold.CacheHits || warm.CacheHits+warm.CacheMisses != cold.CacheHits+cold.CacheMisses {
			t.Fatalf("query %d: warm %d hits %d misses after cold %d hits %d misses",
				i, warm.CacheHits, warm.CacheMisses, cold.CacheHits, cold.CacheMisses)
		}
		after := cached.Cache()
		if got, want := after.Hits-before.Hits, int64(cold.CacheHits+warm.CacheHits); got != want {
			t.Fatalf("query %d: cache counted %d hits, results report %d", i, got, want)
		}
		if got, want := after.Misses-before.Misses, int64(cold.CacheMisses+warm.CacheMisses); got != want {
			t.Fatalf("query %d: cache counted %d misses, results report %d", i, got, want)
		}
	}
	if st := cached.Cache(); st.Misses == 0 {
		t.Fatalf("cache stats not recorded: %+v", st)
	}
}

// TestConcurrentTripQuery hammers one shared engine from many goroutines
// with mixed periodic/fixed queries under -race, asserting every result is
// identical to the sequential reference.
func TestConcurrentTripQuery(t *testing.T) {
	ix, qs := parEnv(t)
	base := Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10}

	seqCfg := base
	seqCfg.DisableCache = true
	seq := NewEngine(ix, seqCfg)
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = seq.TripQuery(q)
	}

	shared := NewEngine(ix, base)
	const goroutines = 8
	const rounds = 3
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range qs {
					j := (i + g) % len(qs)
					got := shared.TripQuery(qs[j])
					if err := sameResult(&want[j], &got); err != nil {
						errs <- fmt.Errorf("goroutine %d round %d query %d: %w", g, r, j, err)
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
}
