package query

import (
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// splitQuiescent splits a store at a trajectory boundary where the batch
// half starts strictly after every earlier trajectory has ended — the
// precondition of snt.Index.Extend — at or after the requested fraction.
// ok is false when the dataset has no such boundary late enough.
func splitQuiescent(s *traj.Store, frac float64) (base, batch *traj.Store, ok bool) {
	s.SortByStart()
	target := int(frac * float64(s.Len()))
	var maxEnd int64
	cut := -1
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(traj.ID(i))
		if i >= target && i > 0 && tr.StartTime() > maxEnd {
			cut = i
			break
		}
		last := tr.Seq[len(tr.Seq)-1]
		if end := last.T + int64(last.TT); end > maxEnd {
			maxEnd = end
		}
	}
	if cut < 0 {
		return nil, nil, false
	}
	base, batch = traj.NewStore(), traj.NewStore()
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(traj.ID(i))
		seq := append([]traj.Entry(nil), tr.Seq...)
		if i < cut {
			base.Add(tr.User, seq)
		} else {
			batch.Add(tr.User, seq)
		}
	}
	return base, batch, true
}

// TestEngineExtendPublishesNewEpoch is the engine-level epoch contract:
// Extend publishes the extended index as a new epoch without rebuilding the
// engine, post-extend queries see the new batch's samples, and no
// full-result cache entry crosses the epoch boundary.
func TestEngineExtendPublishesNewEpoch(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	base, batch, ok := splitQuiescent(ds.Store, 0.6)
	if !ok {
		t.Fatal("dataset has no quiescent split point")
	}
	ix := snt.Build(ds.G, base, snt.Options{})
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	if eng.Epoch() != 0 {
		t.Fatalf("fresh engine epoch = %d", eng.Epoch())
	}

	// Fixed-interval queries over paths from the base half; the explicit
	// huge upper bound keeps the cache key identical across epochs. The
	// first query targets the batch's most-traversed segment with β = 0
	// (exhaustive fixed-interval scan), so its post-extend sample mass must
	// strictly grow — direct evidence the new batch is being served.
	const until = int64(1) << 40
	counts := map[int]int{}
	for i := 0; i < batch.Len(); i++ {
		for _, en := range batch.Get(traj.ID(i)).Seq {
			counts[int(en.Edge)]++
		}
	}
	hot, hotN := -1, 0
	for e, n := range counts {
		if n > hotN {
			hot, hotN = e, n
		}
	}
	queries := []SPQ{{
		Path:     network.Path{network.EdgeID(hot)},
		Interval: snt.NewFixed(0, until),
		Filter:   snt.NoFilter,
		Beta:     0,
	}}
	for i := 0; i < base.Len() && len(queries) < 6; i += 7 {
		tr := base.Get(traj.ID(i))
		if tr.Len() < 3 {
			continue
		}
		queries = append(queries, SPQ{
			Path:     tr.Path(),
			Interval: snt.NewFixed(0, until),
			Filter:   snt.NoFilter,
			Beta:     20,
		})
	}

	cold := make([]Result, len(queries))
	for i, q := range queries {
		cold[i] = eng.TripQuery(q)
		if warm := eng.TripQuery(q); !warm.FullCacheHit {
			t.Fatalf("query %d: warm pre-extend run missed the full-result cache", i)
		}
	}

	if _, err := eng.Extend(batch); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("post-extend epoch = %d, want 1", eng.Epoch())
	}
	if eng.Index() == ix {
		t.Fatal("Extend did not publish a new index snapshot")
	}
	if got, want := eng.Index().Stats().Trajs, base.Len()+batch.Len(); got != want {
		t.Fatalf("published index holds %d trajectories, want %d", got, want)
	}

	// A reference engine built from scratch over the union: post-extend
	// answers must match it exactly — stale cached facts about the old
	// epoch must never leak into them.
	all := traj.NewStore()
	for _, src := range []*traj.Store{base, batch} {
		for i := 0; i < src.Len(); i++ {
			tr := src.Get(traj.ID(i))
			all.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
		}
	}
	ref := NewEngine(snt.Build(ds.G, all, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
			DisableCache: true, DisableFullResultCache: true})

	invalidations := 0
	for i, q := range queries {
		post := eng.TripQuery(q)
		if post.FullCacheHit {
			t.Fatalf("query %d: pre-extend full result served across the epoch boundary", i)
		}
		invalidations += post.CacheInvalidations
		want := ref.TripQuery(q)
		if err := sameResult(&want, &post); err != nil {
			t.Fatalf("query %d: post-extend result diverges from rebuilt reference: %v", i, err)
		}
		if i == 0 && post.Hist.Total() < cold[0].Hist.Total()+float64(hotN) {
			t.Fatalf("hot-segment mass %v after extend, want >= %v+%d: batch samples not served",
				post.Hist.Total(), cold[0].Hist.Total(), hotN)
		}
	}
	// The publication swept the full-result cache eagerly: every
	// pre-extend entry was stamped with epoch 0 and must be gone (counted
	// as purges), so the post-extend queries above found no stale facts to
	// drop lazily.
	if fs := eng.FullCache(); fs.Purges == 0 {
		t.Fatalf("epoch publication purged nothing: %+v", fs)
	}
	if invalidations != 0 {
		t.Fatalf("%d lazy invalidations despite the eager sweep (entries survived the purge)", invalidations)
	}

	// Rejected batches leave the published epoch untouched.
	if _, err := eng.Extend(base); err == nil {
		t.Fatal("overlapping batch accepted")
	}
	if eng.Epoch() != 1 {
		t.Fatalf("failed Extend moved the epoch to %d", eng.Epoch())
	}
	// And the engine remains extendable afterwards (empty batch is a no-op).
	if _, err := eng.Extend(traj.NewStore()); err != nil || eng.Epoch() != 1 {
		t.Fatalf("empty batch: err=%v epoch=%d", err, eng.Epoch())
	}
}
