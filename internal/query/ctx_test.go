package query

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pathhist/internal/traj"
)

// The tests in this file pin down the cancellation contract of
// TripQueryCtx: a canceled query returns ctx.Err() and nothing else — no
// partial Result, no poisoned cache entry, no leaked goroutine — and a
// query that wins the race against its own cancellation returns exactly
// the uncanceled result.

func TestTripQueryCtxAlreadyCanceled(t *testing.T) {
	ix, qs := parEnv(t)
	e := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.TripQueryCtx(ctx, qs[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled query returned %v, want context.Canceled", err)
	}
	if res.Hist != nil || len(res.Subs) != 0 {
		t.Fatal("canceled query returned a partial result")
	}
	// The engine keeps serving afterwards.
	if _, err := e.TripQueryCtx(context.Background(), qs[0]); err != nil {
		t.Fatalf("query after a canceled one: %v", err)
	}
}

func TestTripQueryCtxExpiredDeadline(t *testing.T) {
	ix, qs := parEnv(t)
	e := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.TripQueryCtx(ctx, qs[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline query returned %v, want context.DeadlineExceeded", err)
	}
}

// TestTripQueryCtxRacingCancelNeverCorrupts fires the cancel concurrently
// with the query, so over the workload the cancellation lands at every
// possible point — before the snapshot load, between sub-queries,
// mid-scan, after completion. Whatever the interleaving: an error means a zero
// Result, success means the exact uncanceled result, and the very next
// uncanceled run of the same query must match the sequential reference
// bit for bit (i.e. no partial scan ever reached the caches).
func TestTripQueryCtxRacingCancelNeverCorrupts(t *testing.T) {
	ix, qs := parEnv(t)

	seqCfg := Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true}
	seq := NewEngine(ix, seqCfg)
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = seq.TripQuery(q)
	}

	// Both caches enabled: the configuration with the most state a partial
	// scan could corrupt.
	e := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	for round := 0; round < 3; round++ {
		for i, q := range qs {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				runtime.Gosched()
				cancel()
			}()
			res, err := e.TripQueryCtx(ctx, q)
			cancel()
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d query %d: err = %v, want context.Canceled", round, i, err)
				}
				if res.Hist != nil || len(res.Subs) != 0 {
					t.Fatalf("round %d query %d: partial result alongside the error", round, i)
				}
			} else if cmpErr := sameResult(&want[i], &res); cmpErr != nil {
				t.Fatalf("round %d query %d survived its cancel but differs: %v", round, i, cmpErr)
			}
			got, err := e.TripQueryCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("round %d query %d re-run: %v", round, i, err)
			}
			if cmpErr := sameResult(&want[i], &got); cmpErr != nil {
				t.Fatalf("round %d query %d after canceled attempt: %v", round, i, cmpErr)
			}
		}
	}
}

// TestTripQueryCtxNoGoroutineLeak cancels many queries and asserts nothing
// a canceled query starts outlives it: the goroutine count settles back to
// its starting level.
func TestTripQueryCtxNoGoroutineLeak(t *testing.T) {
	ix, qs := parEnv(t)
	e := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true})
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		for _, q := range qs {
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			_, _ = e.TripQueryCtx(ctx, q)
			cancel()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after canceled queries", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExtendCtxAlreadyCanceled(t *testing.T) {
	ix, _ := parEnv(t)
	e := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	epoch := e.Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExtendCtx(ctx, traj.NewStore()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled extend returned %v, want context.Canceled", err)
	}
	if e.Epoch() != epoch {
		t.Fatal("canceled extend published an epoch")
	}
}
