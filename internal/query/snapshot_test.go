package query

import (
	"bytes"
	"testing"

	"pathhist/internal/hist"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// TestEngineSnapshotRestoresEpoch pins the epoch semantics of restart
// persistence: a restored engine republishes the epoch the snapshot was
// written at, serves bit-identical results, and its next publication
// continues the epoch sequence instead of restarting at 1.
func TestEngineSnapshotRestoresEpoch(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	base, batch, ok := splitQuiescent(ds.Store, 0.5)
	if !ok {
		t.Fatal("dataset has no quiescent split point")
	}
	// Split the batch half again so one extend remains to replay after the
	// restore.
	batch1, batch2, ok := splitQuiescent(batch, 0.5)
	if !ok {
		t.Fatal("batch has no quiescent split point")
	}

	ix := snt.Build(ds.G, base, snt.Options{})
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	if _, err := eng.Extend(batch1); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("epoch after extend = %d", eng.Epoch())
	}

	// Snapshot the published pair, restore, and compare.
	six, sepoch := eng.Snapshot()
	var buf bytes.Buffer
	if _, err := six.WriteSnapshot(&buf, sepoch); err != nil {
		t.Fatal(err)
	}
	lix, lepoch, err := snt.ReadSnapshotBytes(ds.G, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewEngineAt(lix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10}, lepoch)
	if restored.Epoch() != 1 {
		t.Fatalf("restored epoch = %d, want 1", restored.Epoch())
	}

	qs := ds.MakeQueries(0.05, 5, cfg.Seed+1)
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
	for _, q := range qs[:min(20, len(qs))] {
		spq := SPQ{Path: q.Path, Interval: snt.PeriodicAround(q.T0, 900), Filter: snt.NoFilter, Beta: 20}
		a, b := eng.TripQuery(spq), restored.TripQuery(spq)
		if a.Epoch != 1 || b.Epoch != 1 {
			t.Fatalf("epochs = %d/%d, want 1/1", a.Epoch, b.Epoch)
		}
		if !histEqual(a.Hist, b.Hist) || len(a.Subs) != len(b.Subs) {
			t.Fatalf("restored engine disagrees on %v", q.Path)
		}
	}

	// The restored engine keeps ingesting; its next publication continues
	// the sequence at epoch 2, exactly like the writer's would.
	st, err := restored.Extend(batch2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || restored.Epoch() != 2 {
		t.Fatalf("epoch after restored extend = %d (stats %d), want 2", restored.Epoch(), st.Epoch)
	}
	if _, err := eng.Extend(cloneStore(batch2)); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:min(10, len(qs))] {
		spq := SPQ{Path: q.Path, Interval: snt.PeriodicAround(q.T0, 900), Filter: snt.NoFilter, Beta: 20}
		a, b := eng.TripQuery(spq), restored.TripQuery(spq)
		if !histEqual(a.Hist, b.Hist) {
			t.Fatalf("post-restore extend disagrees on %v", q.Path)
		}
	}
}

func cloneStore(s *traj.Store) *traj.Store {
	out := traj.NewStore()
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(traj.ID(i))
		out.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
	}
	return out
}

func histEqual(a, b *hist.Histogram) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Total() != b.Total() || a.Min() != b.Min() || a.Max() != b.Max() || a.BucketWidth() != b.BucketWidth() {
		return false
	}
	for x := a.Min(); x <= a.Max(); x += a.BucketWidth() {
		if a.Count(x) != b.Count(x) {
			return false
		}
	}
	return true
}
