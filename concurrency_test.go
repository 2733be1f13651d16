package pathhist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathhist/internal/workload"
)

// sameResults compares the caller-visible parts of two results.
func sameResults(a, b *Result) error {
	if a.MeanSeconds != b.MeanSeconds {
		return fmt.Errorf("mean %v vs %v", a.MeanSeconds, b.MeanSeconds)
	}
	if len(a.Subs) != len(b.Subs) {
		return fmt.Errorf("subs %d vs %d", len(a.Subs), len(b.Subs))
	}
	for i := range a.Subs {
		sa, sb := &a.Subs[i], &b.Subs[i]
		if sa.Samples != sb.Samples || sa.MeanTT != sb.MeanTT || sa.Fallback != sb.Fallback || len(sa.Path) != len(sb.Path) {
			return fmt.Errorf("sub %d: %+v vs %+v", i, sa, sb)
		}
	}
	if a.Histogram.Total() != b.Histogram.Total() ||
		a.Histogram.Min() != b.Histogram.Min() ||
		a.Histogram.Max() != b.Histogram.Max() ||
		math.Abs(a.Histogram.Mean()-b.Histogram.Mean()) > 1e-9 {
		return fmt.Errorf("histogram mismatch")
	}
	return nil
}

// TestConcurrentEngineMatchesSequential hammers one shared Engine from many
// goroutines with mixed periodic and fixed queries (run under -race in CI),
// asserting every answer equals the sequential no-cache reference. This is
// the library-level statement of the concurrency model: the index is
// immutable after NewEngine, so a single Engine serves arbitrary concurrent
// traffic.
func TestConcurrentEngineMatchesSequential(t *testing.T) {
	e := env(t)
	seq, err := NewEngine(e.DS.G, e.DS.Store, Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewEngine(e.DS.G, e.DS.Store, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := e.Queries
	if len(qs) > 24 {
		qs = qs[:24]
	}
	mkQuery := func(i int, q workload.Query) Query {
		out := Query{Path: q.Path, Beta: 20, Exclude: true, ExcludeTraj: q.Traj}
		switch i % 3 {
		case 0:
			out.Around = q.T0
		case 1:
			out.Around = q.T0
			out.FilterUser = true
			out.User = q.User
		default:
			out.From, out.Until = 0, q.T0
		}
		return out
	}
	want := make([]*Result, len(qs))
	for i, q := range qs {
		r, err := seq.Query(mkQuery(i, q))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 8
	const rounds = 2
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range qs {
					j := (i + g) % len(qs)
					got, err := shared.Query(mkQuery(j, qs[j]))
					if err != nil {
						errs <- err
						return
					}
					if err := sameResults(want[j], got); err != nil {
						errs <- fmt.Errorf("goroutine %d query %d: %w", g, j, err)
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
	if st := shared.CacheStats(); st.Hits == 0 {
		t.Fatalf("shared engine recorded no cache hits: %+v", st)
	}
}

// TestCacheDisabledEngine checks the opt-out leaves counters at zero.
func TestCacheDisabledEngine(t *testing.T) {
	e := env(t)
	eng, err := NewEngine(e.DS.G, e.DS.Store, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	q := e.Queries[0]
	for i := 0; i < 3; i++ {
		res, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20, Exclude: true, ExcludeTraj: q.Traj})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits != 0 || res.CacheMisses != 0 {
			t.Fatalf("cache counters nonzero with cache disabled: %+v", res)
		}
	}
	if st := eng.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("engine cache stats nonzero: %+v", st)
	}
}

// TestQueryDeadlineBounded is the bounded-latency acceptance check: a
// query run under a deadline always comes back — answered, or with
// context.DeadlineExceeded — and a timed-out query returns well inside 2×
// its deadline (the cancellation stride bounds how long a scan can overrun;
// a generous scheduling grace absorbs CI jitter for sub-millisecond
// deadlines). Deadlines are swept from already-expired to comfortable so
// both outcomes occur on every run.
func TestQueryDeadlineBounded(t *testing.T) {
	e := env(t)
	eng, err := NewEngine(e.DS.G, e.DS.Store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const grace = 100 * time.Millisecond // scheduler + stride slack
	deadlines := []time.Duration{0, 20 * time.Microsecond, 500 * time.Microsecond, 50 * time.Millisecond}
	var timedOut, completed int
	for i, q := range e.Queries {
		d := deadlines[i%len(deadlines)]
		ctx, cancel := context.WithTimeout(context.Background(), d)
		start := time.Now()
		res, err := eng.QueryCtx(ctx, Query{Path: q.Path, Around: q.T0, Beta: 20})
		lat := time.Since(start)
		cancel()
		switch {
		case err == nil:
			completed++
			if res == nil {
				t.Fatalf("query %d: nil result without error", i)
			}
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
			if res != nil {
				t.Fatalf("query %d: partial result alongside a deadline error", i)
			}
			bound := 2*d + grace
			if lat > bound {
				t.Fatalf("query %d: deadline %v but returned after %v (bound %v)", i, d, lat, bound)
			}
		default:
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	if timedOut == 0 {
		t.Fatal("no query timed out: the sweep never exercised the deadline path")
	}
	if completed == 0 {
		t.Fatal("no query completed: the sweep never exercised the success path")
	}
}

// TestCancellationLeaksNothing hammers a shared engine with queries whose
// contexts are canceled at random moments, racing the scan (run under
// -race in CI). Afterwards the process must be clean: the goroutine count
// settles back (speculative workers exited), and a fresh uncanceled run of
// every query still matches the sequential reference — a canceled query
// freed its pooled scratch without poisoning it and never planted a
// partial answer in a cache.
func TestCancellationLeaksNothing(t *testing.T) {
	e := env(t)
	seq, err := NewEngine(e.DS.G, e.DS.Store, Options{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewEngine(e.DS.G, e.DS.Store, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := e.Queries
	if len(qs) > 16 {
		qs = qs[:16]
	}
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for j := 0; j < 40; j++ {
				q := qs[rng.Intn(len(qs))]
				ctx, cancel := context.WithCancel(context.Background())
				go func(after time.Duration) {
					time.Sleep(after)
					cancel()
				}(time.Duration(rng.Intn(200)) * time.Microsecond)
				_, err := shared.QueryCtx(ctx, Query{Path: q.Path, Around: q.T0, Beta: 20})
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("goroutine %d query %d: %v", g, j, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Goroutines must settle back to the pre-hammer level (the canceler
	// goroutines and any speculative workers exit on their own).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Fatalf("goroutines leaked under cancellation: %d before, %d after", before, now)
	}
	// The pool survived: uncanceled queries still answer exactly.
	for i, q := range qs {
		want, err := seq.Query(Query{Path: q.Path, Around: q.T0, Beta: 20})
		if err != nil {
			t.Fatal(err)
		}
		got, err := shared.Query(Query{Path: q.Path, Around: q.T0, Beta: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResults(want, got); err != nil {
			t.Fatalf("query %d after cancellation storm: %v", i, err)
		}
	}
}
