package pathhist

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotFileInAndRetention pins the epoch-named snapshot lifecycle:
// SnapshotFileIn writes snapshot-<epoch>.snt with trajectory-count stats,
// FindLatestSnapshot picks the newest (none in an empty directory), and
// PruneSnapshots keeps the newest K while never deleting the protected
// file.
func TestSnapshotFileInAndRetention(t *testing.T) {
	g, eng, qs := lifecycleEngine(t, Options{Partition: ByZone})
	dir := t.TempDir()
	if got, err := FindLatestSnapshot(dir); err != nil || got != "" {
		t.Fatalf("empty dir: %q, %v", got, err)
	}

	st, err := eng.SnapshotFileIn(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantPath := filepath.Join(dir, SnapshotName(eng.Epoch()))
	if st.Path != wantPath || st.Epoch != eng.Epoch() || st.Trajectories != eng.Trajectories() {
		t.Fatalf("stats %+v, want path %s epoch %d trajs %d", st, wantPath, eng.Epoch(), eng.Trajectories())
	}
	if _, err := os.Stat(wantPath); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	// The epoch-named file loads like any snapshot.
	restored, err := LoadSnapshotFile(g, st.Path, Options{Partition: ByZone})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, eng, restored, qs, "epoch-named snapshot")

	// Fake older generations. The engine's epoch is 3 (two extends +
	// compaction), so epochs 0-2 are strictly older.
	if eng.Epoch() != 3 {
		t.Fatalf("lifecycle epoch = %d, fixture assumes 3", eng.Epoch())
	}
	older := []string{SnapshotName(0), SnapshotName(1), SnapshotName(2)}
	for _, name := range older {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	latest, err := FindLatestSnapshot(dir)
	if err != nil || latest != wantPath {
		t.Fatalf("FindLatestSnapshot = %s, %v; want %s", latest, err, wantPath)
	}

	// keep=2 with epoch 1 protected: epoch 0 goes, {1 (protected), 2,
	// real} survive.
	protect := filepath.Join(dir, SnapshotName(1))
	deleted, err := PruneSnapshots(dir, 2, protect)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != SnapshotName(0) {
		t.Fatalf("deleted %v, want [%s]", deleted, SnapshotName(0))
	}
	for _, name := range []string{SnapshotName(1), SnapshotName(2), filepath.Base(wantPath)} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s should survive: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName(0))); !os.IsNotExist(err) {
		t.Fatalf("%s should be pruned", SnapshotName(0))
	}

	// With the protection lifted the keep bound applies strictly.
	if _, err := PruneSnapshots(dir, 1, ""); err != nil {
		t.Fatal(err)
	}
	left, err := FindLatestSnapshot(dir)
	if err != nil || left != wantPath {
		t.Fatalf("after prune to 1: latest = %s, %v", left, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d files left, want 1", len(entries))
	}
}
