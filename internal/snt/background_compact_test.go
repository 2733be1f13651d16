package snt

import (
	"errors"
	"testing"
)

// TestPrepareApplyAfterExtend is the differential at the heart of
// background compaction: a preparation built against one snapshot is
// applied to a LATER snapshot (two Extends landed in between), and the
// result must answer every query bit-identically to the uncompacted chain —
// merged prefix, survivors, and the partitions ingested mid-flight all
// correctly remapped.
func TestPrepareApplyAfterExtend(t *testing.T) {
	opts := Options{}
	g, ids, s := synthStore(t, 24, 12)
	s.SortByStart()
	n := s.Len()
	cut := n * 2 / 3

	// 8 partitions over the first two thirds; the last third is held back
	// to ingest while the preparation is outstanding.
	frag := fragmentedIndex(t, g, sliceStore(s, 0, cut), 7, opts)
	old := frag.NumPartitions()
	p, err := frag.PrepareCompaction(CompactionPolicy{TriggerPartitions: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Runs() != 1 {
		t.Fatalf("prepared runs = %v", p)
	}
	// Preparing supersedes nothing: the chain keeps extending.
	if frag.superseded.Load() {
		t.Fatal("PrepareCompaction superseded the snapshot")
	}
	mid := cut + (n-cut)/2
	ix1, err := frag.Extend(sliceStore(s, cut, mid))
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := ix1.Extend(sliceStore(s, mid, n))
	if err != nil {
		t.Fatal(err)
	}

	applied, stats, err := ix2.ApplyCompaction(p)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: the 8 prepared partitions collapse to 1, the 2 ingested
	// mid-preparation carry over (ids shifted down).
	if applied.NumPartitions() != 3 {
		t.Fatalf("partitions after apply = %d, want 3", applied.NumPartitions())
	}
	if stats.PartitionsBefore != old+2 || stats.PartitionsAfter != 3 || stats.Runs != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.TrajsRebuilt != cut {
		t.Fatalf("TrajsRebuilt = %d, want %d", stats.TrajsRebuilt, cut)
	}
	// The mid-flight partitions' FM-indexes are shared, not rebuilt.
	if applied.parts[1].fm != ix2.parts[old].fm || applied.parts[2].fm != ix2.parts[old+1].fm {
		t.Fatal("mid-flight partitions were rebuilt")
	}
	// Apply supersedes the target exactly like Extend; the result extends.
	if _, _, err := ix2.Compact(CompactionPolicy{TriggerPartitions: -1}); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("superseded apply target accepted another compaction: %v", err)
	}

	// The differential: identical answers to the uncompacted chain, and to
	// a from-scratch build with compact-then-extend of the same cuts.
	assertSameResults(t, ids, ix2, applied, "apply-after-extend vs uncompacted")
	sync := fragmentedIndex(t, g, sliceStore(s, 0, cut), 7, opts)
	syncC, _, err := sync.Compact(CompactionPolicy{TriggerPartitions: -1})
	if err != nil {
		t.Fatal(err)
	}
	syncC, err = syncC.Extend(sliceStore(s, cut, mid))
	if err != nil {
		t.Fatal(err)
	}
	syncC, err = syncC.Extend(sliceStore(s, mid, n))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ids, syncC, applied, "apply-after-extend vs compact-then-extend")
	for _, name := range []string{"A", "B", "E"} {
		sa, oka := todSel(syncC, ids[name], NewPeriodic(8*3600, 3600))
		sb, okb := todSel(applied, ids[name], NewPeriodic(8*3600, 3600))
		if oka != okb || !approxEq(sa, sb) {
			t.Fatalf("ToD selectivity differs on %s: %v vs %v", name, sa, sb)
		}
	}
}

// TestApplyCompactionStale pins the re-base contract: a preparation is
// invalidated by a competing compaction (the prepared partitions stop being
// a prefix of the newest snapshot) and by application to a superseded
// snapshot — and a nil preparation is the documented no-op.
func TestApplyCompactionStale(t *testing.T) {
	g, _, s := synthStore(t, 20, 10)
	frag := fragmentedIndex(t, g, s, 7, Options{})

	p, err := frag.PrepareCompaction(CompactionPolicy{TriggerPartitions: -1})
	if err != nil || p == nil {
		t.Fatalf("prepare: %v %v", p, err)
	}
	compacted, _, err := frag.Compact(CompactionPolicy{TriggerPartitions: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The competing compaction changed the partition prefix: stale.
	if _, _, err := compacted.ApplyCompaction(p); !errors.Is(err, ErrCompactionStale) {
		t.Fatalf("apply over competing compaction: %v", err)
	}
	// Applying to the now-superseded original fails like any mutation.
	if _, _, err := frag.ApplyCompaction(p); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("apply to superseded snapshot: %v", err)
	}
	// Re-basing: prepare against the newest snapshot plans nothing (one
	// partition left), and applying the nil preparation is a no-op.
	p2, err := compacted.PrepareCompaction(CompactionPolicy{TriggerPartitions: -1})
	if err != nil || p2 != nil {
		t.Fatalf("re-prepare on compacted: %v %v", p2, err)
	}
	same, stats, err := compacted.ApplyCompaction(nil)
	if err != nil || same != compacted || stats.Runs != 0 {
		t.Fatalf("nil apply: %v %+v", err, stats)
	}
	if compacted.superseded.Load() {
		t.Fatal("nil apply superseded the snapshot")
	}
}

// TestCompactMaxRunsChunks pins incremental compaction: MaxRuns=1 merges
// one run per cycle, repeated cycles converge to the same layout the
// unbounded policy reaches, and every intermediate snapshot answers
// identically.
func TestCompactMaxRunsChunks(t *testing.T) {
	g, ids, s := synthStore(t, 24, 12)
	frag := fragmentedIndex(t, g, s, 11, Options{})
	if frag.NumPartitions() != 12 {
		t.Fatalf("partitions = %d", frag.NumPartitions())
	}
	perPart := frag.parts[1].records
	policy := CompactionPolicy{
		TriggerPartitions: -1,
		MaxMergedRecords:  perPart*3 + 1,
		MaxRuns:           1,
	}
	ix, cycles := frag, 0
	for {
		next, stats, err := ix.Compact(policy)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycles, err)
		}
		if next == ix {
			break // no more runs: converged
		}
		if stats.Runs != 1 {
			t.Fatalf("cycle %d merged %d runs, MaxRuns=1", cycles, stats.Runs)
		}
		ix = next
		if cycles++; cycles > 12 {
			t.Fatal("chunked compaction did not converge")
		}
	}
	if cycles < 2 {
		t.Fatalf("expected multiple chunked cycles, got %d", cycles)
	}
	// Convergence target: what the unbounded-runs policy produces at once.
	full := policy
	full.MaxRuns = 0
	want, _, err := fragmentedIndex(t, g, s, 11, Options{}).Compact(full)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumPartitions() != want.NumPartitions() {
		t.Fatalf("chunked converged to %d partitions, unbounded to %d",
			ix.NumPartitions(), want.NumPartitions())
	}
	assertSameResults(t, ids, want, ix, "chunked vs unbounded")
	assertSameResults(t, ids, frag, ix, "chunked vs fragmented")
}
