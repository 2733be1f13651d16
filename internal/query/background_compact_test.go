package query

import (
	"sync"
	"testing"
	"time"

	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// ingestBatches cuts a store into a base plus as many quiescent Extend
// batches as the dataset allows.
func ingestBatches(s *traj.Store) (*traj.Store, []*traj.Store) {
	cuts := s.QuiescentCuts()
	if len(cuts) < 2 {
		return s, nil
	}
	base := s.Slice(0, cuts[0])
	batches := make([]*traj.Store, 0, len(cuts))
	for b := range cuts {
		hi := s.Len()
		if b+1 < len(cuts) {
			hi = cuts[b+1]
		}
		batches = append(batches, s.Slice(cuts[b], hi))
	}
	return base, batches
}

// TestBackgroundCompaction is the engine-level contract for the off-lock
// merge path: with a compaction trigger set, triggering Extends return
// without merging, the background goroutine publishes compacted epochs on
// its own, queries run concurrently throughout (under -race this is the
// reader/preparer/applier interleaving proof), and once the dust settles
// results are bit-identical to a from-scratch rebuild over the same data.
func TestBackgroundCompaction(t *testing.T) {
	ds := workload.BuildDataset(workload.SmallConfig())
	base, batches := ingestBatches(ds.Store.Slice(0, ds.Store.Len()))
	if len(batches) < 4 {
		t.Skipf("dataset yields only %d quiescent batches", len(batches))
	}
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}), Config{
		Partitioner: Partitioner{Kind: ZoneKind},
		BucketWidth: 10,
		Compaction:  snt.CompactionPolicy{TriggerPartitions: 3},
	})
	defer eng.Close()

	// Concurrent query load across the whole ingest: every query must see a
	// consistent snapshot regardless of which merges publish when.
	const until = int64(1) << 40
	queries := make([]SPQ, 0, 6)
	for i := 0; i < base.Len() && len(queries) < 6; i += 5 {
		tr := base.Get(traj.ID(i))
		if tr.Len() < 2 {
			continue
		}
		queries = append(queries, SPQ{
			Path:     tr.Path(),
			Interval: snt.NewFixed(0, until),
			Filter:   snt.NoFilter,
			Beta:     10,
		})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng.TripQuery(queries[(i+w)%len(queries)])
			}
		}(w)
	}

	total := base.Len()
	for b, batch := range batches {
		st, err := eng.Extend(batch)
		if err != nil {
			t.Fatalf("extend %d: %v", b, err)
		}
		total += batch.Len()
		if st.TotalTrajectories != total {
			t.Fatalf("extend %d: total %d, want %d", b, st.TotalTrajectories, total)
		}
	}
	// The merges are asynchronous: wait for the backlog to drain below the
	// trigger (each publication is observable through CompactionInfo).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if eng.Index().NumPartitions() < 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never drained: %d partitions, %d compactions, %d failures",
				eng.Index().NumPartitions(), func() int64 { n, _ := eng.CompactionInfo(); return n }(),
				eng.CompactionFailures())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n, last := eng.CompactionInfo(); n == 0 || last.Epoch == 0 {
		t.Fatalf("no background compaction published: n=%d last=%+v", n, last)
	}
	if f := eng.CompactionFailures(); f != 0 {
		t.Fatalf("%d background compaction failures", f)
	}
	if got := eng.Index().Stats().Trajs; got != total {
		t.Fatalf("post-compaction index holds %d trajectories, want %d", got, total)
	}

	// Differential: bit-identical to a from-scratch single-shot build.
	ref := NewEngine(snt.Build(ds.G, ds.Store.Slice(0, ds.Store.Len()), snt.Options{}), Config{
		Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true,
	})
	for i, q := range queries {
		got := eng.TripQuery(q)
		want := ref.TripQuery(q)
		if err := sameResult(&want, &got); err != nil {
			t.Fatalf("query %d diverges from rebuilt reference: %v", i, err)
		}
	}

	// Close is idempotent and leaves the engine serving.
	eng.Close()
	eng.Close()
	if r := eng.TripQuery(queries[0]); r.Hist == nil {
		t.Fatal("engine stopped serving after Close")
	}
	// Post-Close triggering Extends must not panic or leak (kick is a no-op).
	if _, err := eng.Extend(traj.NewStore()); err != nil {
		t.Fatalf("post-Close empty extend: %v", err)
	}
}

// TestBackgroundCompactionRebase pins the stale-preparation path: a manual
// Compact racing the background goroutine forces ErrCompactionStale inside
// the cycle, which must re-base and still converge with zero failures.
func TestBackgroundCompactionRebase(t *testing.T) {
	ds := workload.BuildDataset(workload.SmallConfig())
	base, batches := ingestBatches(ds.Store.Slice(0, ds.Store.Len()))
	if len(batches) < 4 {
		t.Skipf("dataset yields only %d quiescent batches", len(batches))
	}
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}), Config{
		Partitioner: Partitioner{Kind: ZoneKind},
		BucketWidth: 10,
		Compaction:  snt.CompactionPolicy{TriggerPartitions: 2},
	})
	defer eng.Close()
	if len(batches) > 8 {
		batches = batches[:8] // the race needs a handful of cycles, not the whole feed
	}
	for b, batch := range batches {
		if _, err := eng.Extend(batch); err != nil {
			t.Fatalf("extend %d: %v", b, err)
		}
		// Race a manual compaction against the background cycle the
		// Extend just kicked.
		if _, err := eng.Compact(); err != nil {
			t.Fatalf("manual compact %d: %v", b, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.Index().NumPartitions() >= 2 {
		if time.Now().After(deadline) {
			t.Fatalf("compaction never converged: %d partitions", eng.Index().NumPartitions())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if f := eng.CompactionFailures(); f != 0 {
		t.Fatalf("%d compaction failures (stale preparations must re-base, not fail)", f)
	}
	want := base.Len()
	for _, b := range batches {
		want += b.Len()
	}
	if got := eng.Index().Stats().Trajs; got != want {
		t.Fatalf("index holds %d trajectories, want %d", got, want)
	}
}
