package query

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pathhist/internal/failpoint"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// chunkStores cuts the batch half of a quiescently-split dataset into n
// strictly-newer sub-batches at quiescent boundaries where possible; the
// simple equal split works because splitQuiescent already guarantees the
// batch half starts after the base half ends, and within the batch half we
// re-split quiescently.
func chunkQuiescent(batch *traj.Store, n int) []*traj.Store {
	out := []*traj.Store{batch}
	for len(out) < n {
		last := out[len(out)-1]
		a, b, ok := splitQuiescent(last, 0.5)
		if !ok || a.Len() == 0 || b.Len() == 0 {
			break
		}
		out = append(out[:len(out)-1], a, b)
	}
	return out
}

// TestEngineCompactPublishesEquivalentEpoch: a manual Compact publishes a
// new epoch whose answers are identical to a from-scratch rebuild, while
// concurrent queries keep running against whatever snapshot they pinned.
// Run with -race to exercise the publication edges.
func TestEngineCompactPublishesEquivalentEpoch(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	base, batch, ok := splitQuiescent(ds.Store, 0.5)
	if !ok {
		t.Fatal("dataset has no quiescent split point")
	}
	chunks := chunkQuiescent(batch, 4)
	if len(chunks) < 2 {
		t.Fatal("could not chunk the batch half")
	}
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})

	var queries []SPQ
	for i := 0; i < base.Len() && len(queries) < 8; i += 5 {
		tr := base.Get(traj.ID(i))
		if tr.Len() < 3 {
			continue
		}
		queries = append(queries, SPQ{
			Path:     tr.Path(),
			Interval: snt.NewFixed(0, int64(1)<<40),
			Filter:   snt.NoFilter,
			Beta:     20,
		})
	}

	// Background query load across the extend/compact churn.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = eng.TripQuery(queries[i%len(queries)])
			}
		}(w)
	}

	for _, ch := range chunks {
		if _, err := eng.Extend(ch); err != nil {
			t.Fatal(err)
		}
	}
	fragParts := eng.Index().NumPartitions()
	if fragParts != len(chunks)+1 {
		t.Fatalf("partitions = %d, want %d", fragParts, len(chunks)+1)
	}
	epochBefore := eng.Epoch()
	stats, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if stats.PartitionsBefore != fragParts || stats.PartitionsAfter != 1 {
		t.Fatalf("compaction stats: %+v", stats)
	}
	if eng.Epoch() != epochBefore+1 {
		t.Fatalf("epoch after compaction = %d, want %d", eng.Epoch(), epochBefore+1)
	}
	if n, last := eng.CompactionInfo(); n != 1 || last.PartitionsAfter != 1 {
		t.Fatalf("CompactionInfo = %d, %+v", n, last)
	}
	if eng.Index().NumPartitions() != 1 || !strings.Contains(eng.Index().String(), fmt.Sprintf("(compacted from %d)", fragParts)) {
		t.Fatalf("published index: %v", eng.Index())
	}

	// Equivalence against a from-scratch rebuild over the union.
	all := traj.NewStore()
	for _, src := range append([]*traj.Store{base}, chunks...) {
		for i := 0; i < src.Len(); i++ {
			tr := src.Get(traj.ID(i))
			all.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
		}
	}
	ref := NewEngine(snt.Build(ds.G, all, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
			DisableCache: true, DisableFullResultCache: true})
	for i, q := range queries {
		got := eng.TripQuery(q)
		want := ref.TripQuery(q)
		if err := sameResult(&want, &got); err != nil {
			t.Fatalf("query %d: post-compaction result diverges from rebuild: %v", i, err)
		}
	}

	// A second manual Compact finds nothing and publishes nothing.
	st2, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st2.PartitionsBefore != st2.PartitionsAfter || eng.Epoch() != epochBefore+1 {
		t.Fatalf("no-op compaction published: %+v epoch=%d", st2, eng.Epoch())
	}
}

// TestEngineAutoCompaction: with a trigger configured, the background
// compactor brings the partition count back under it after the ingest, and
// no trajectory is lost on the way.
func TestEngineAutoCompaction(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	base, batch, ok := splitQuiescent(ds.Store, 0.4)
	if !ok {
		t.Fatal("dataset has no quiescent split point")
	}
	chunks := chunkQuiescent(batch, 6)
	if len(chunks) < 3 {
		t.Skip("dataset has too few quiescent boundaries")
	}
	const trigger = 3
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
			Compaction: snt.CompactionPolicy{TriggerPartitions: trigger}})
	defer eng.Close()
	for bi, ch := range chunks {
		st, err := eng.Extend(ch)
		if err != nil {
			t.Fatalf("extend %d: %v", bi, err)
		}
		if eng.Epoch() < st.Epoch {
			t.Fatalf("extend %d: published epoch went backwards", bi)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.Index().NumPartitions() >= trigger {
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction left %d partitions (trigger %d)", eng.Index().NumPartitions(), trigger)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n, _ := eng.CompactionInfo(); n == 0 {
		t.Fatal("auto-compaction never ran")
	}
	if got, want := eng.Index().Stats().Trajs, base.Len()+batch.Len(); got != want {
		t.Fatalf("trajectories after auto-compaction = %d, want %d", got, want)
	}
}

// TestManualCompactDoesNotBlockExtend: a manual Compact prepares its merge
// off the write lock, so an Extend issued while the merge prepares returns
// without waiting it out. The batch it ingests stays its own partition, and
// a second Compact folds it in, answering like a from-scratch build.
func TestManualCompactDoesNotBlockExtend(t *testing.T) {
	ds := workload.BuildDataset(workload.SmallConfig())
	base, batches := ingestBatches(ds.Store.Slice(0, ds.Store.Len()))
	if len(batches) < 2 {
		t.Skipf("dataset yields only %d quiescent batches", len(batches))
	}
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	defer eng.Close()
	last := batches[len(batches)-1]
	for b, batch := range batches[:len(batches)-1] {
		if _, err := eng.Extend(batch); err != nil {
			t.Fatalf("extend %d: %v", b, err)
		}
	}

	const delay = 600 * time.Millisecond
	failpoint.Enable(snt.FailpointPrepareRun, failpoint.Injection{Delay: delay})
	defer failpoint.Disable(snt.FailpointPrepareRun)
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Compact()
		errc <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for failpoint.Hits(snt.FailpointPrepareRun) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Compact never reached its preparation")
		}
		time.Sleep(time.Millisecond)
	}
	started := time.Now()
	if _, err := eng.Extend(last); err != nil {
		t.Fatalf("extend during compaction: %v", err)
	}
	if elapsed := time.Since(started); elapsed >= delay/2 {
		t.Fatalf("Extend took %v during a %v merge preparation — it waited the merge out", elapsed, delay)
	}
	if err := <-errc; err != nil {
		t.Fatalf("compact: %v", err)
	}
	failpoint.Disable(snt.FailpointPrepareRun)
	if got := eng.Index().NumPartitions(); got != 2 {
		t.Fatalf("partitions after the first Compact = %d, want 2 (the merge plus the batch ingested during it)", got)
	}
	if _, err := eng.Compact(); err != nil {
		t.Fatalf("second compact: %v", err)
	}
	if got := eng.Index().NumPartitions(); got != 1 {
		t.Fatalf("partitions after the second Compact = %d, want 1", got)
	}

	ref := NewEngine(snt.Build(ds.G, ds.Store.Slice(0, ds.Store.Len()), snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
			DisableCache: true, DisableFullResultCache: true})
	n := 0
	for i := 0; i < ds.Store.Len() && n < 8; i += 7 {
		tr := ds.Store.Get(traj.ID(i))
		if tr.Len() < 2 {
			continue
		}
		n++
		q := SPQ{Path: tr.Path(), Interval: snt.NewFixed(0, int64(1)<<40), Filter: snt.NoFilter, Beta: 10}
		got, want := eng.TripQuery(q), ref.TripQuery(q)
		if err := sameResult(&want, &got); err != nil {
			t.Fatalf("query %d diverges from the rebuilt reference: %v", i, err)
		}
	}
}

// TestCachePurgeOnPublication: epoch publication eagerly empties the
// full-result cache of old-epoch entries and counts them as purges.
func TestCachePurgeOnPublication(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	base, batch, ok := splitQuiescent(ds.Store, 0.6)
	if !ok {
		t.Fatal("dataset has no quiescent split point")
	}
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}),
		Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	var queries []SPQ
	for i := 0; i < base.Len() && len(queries) < 10; i += 3 {
		tr := base.Get(traj.ID(i))
		if tr.Len() < 2 {
			continue
		}
		queries = append(queries, SPQ{Path: tr.Path(), Interval: snt.NewFixed(0, int64(1)<<40), Filter: snt.NoFilter, Beta: 20})
	}
	for _, q := range queries {
		_ = eng.TripQuery(q)
	}
	fullBefore := eng.FullCache()
	if fullBefore.Entries == 0 {
		t.Fatalf("full-result cache not warmed: %+v", fullBefore)
	}
	if _, err := eng.Extend(batch); err != nil {
		t.Fatal(err)
	}
	full := eng.FullCache()
	if full.Entries != 0 {
		t.Fatalf("stale entries survived the publication sweep: %+v", full)
	}
	if full.Purges != int64(fullBefore.Entries) {
		t.Fatalf("purge counter %d, want %d", full.Purges, fullBefore.Entries)
	}
}
