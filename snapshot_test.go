package pathhist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pathhist/internal/workload"
)

// lifecycleEngine builds a public-API engine that has lived through the
// full mutation lifecycle — build, two extends, a compaction — so its
// snapshot exercises multi-partition state and the compactedFrom marker.
func lifecycleEngine(t testing.TB, opts Options) (*Graph, *Engine, []workload.Query) {
	t.Helper()
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	qs := ds.MakeQueries(0.05, 5, cfg.Seed+1)
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) < 3 {
		t.Fatalf("dataset has %d quiescent cuts, need 3", len(cuts))
	}
	a, b := cuts[len(cuts)/2], cuts[len(cuts)*3/4]
	eng, err := NewEngine(ds.G, ds.Store.Slice(0, a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Extend(ds.Store.Slice(a, b)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Extend(ds.Store.Slice(b, ds.Store.Len())); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	return ds.G, eng, qs
}

func queryOnce(t testing.TB, eng *Engine, q workload.Query) *Result {
	t.Helper()
	res, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameAnswers(t *testing.T, a, b *Engine, qs []workload.Query, label string) {
	t.Helper()
	n := len(qs)
	if n > 30 {
		n = 30
	}
	for _, q := range qs[:n] {
		ra, rb := queryOnce(t, a, q), queryOnce(t, b, q)
		if ra.MeanSeconds != rb.MeanSeconds || ra.Epoch != rb.Epoch || len(ra.Subs) != len(rb.Subs) {
			t.Fatalf("%s: engines disagree on %v: mean %v/%v epoch %d/%d",
				label, q.Path, ra.MeanSeconds, rb.MeanSeconds, ra.Epoch, rb.Epoch)
		}
		ha, hb := ra.Histogram, rb.Histogram
		if ha.Total() != hb.Total() || ha.Min() != hb.Min() || ha.Max() != hb.Max() {
			t.Fatalf("%s: histograms disagree on %v", label, q.Path)
		}
		for x := ha.Min(); x <= ha.Max(); x += ha.BucketWidth() {
			if ha.Count(x) != hb.Count(x) {
				t.Fatalf("%s: bucket %d disagrees on %v", label, x, q.Path)
			}
		}
	}
}

// TestPublicSnapshotRoundTrip: the public Snapshot/LoadSnapshotFile pair
// restores an engine whose answers, epoch, partition layout and memory
// model are identical to the writer's — with the estimator and ToD
// histograms (CSSAcc) in play.
func TestPublicSnapshotRoundTrip(t *testing.T) {
	opts := Options{Partition: ByZone, Estimator: EstimatorCSSAcc}
	g, eng, qs := lifecycleEngine(t, opts)

	var buf bytes.Buffer
	st, err := eng.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(buf.Len()) || st.Bytes == 0 || st.Epoch != eng.Epoch() {
		t.Fatalf("Snapshot stats %+v, buffered %d, engine epoch %d", st, buf.Len(), eng.Epoch())
	}
	path := writeSnapshotImage(t, buf.Bytes())
	restored, err := LoadSnapshotFile(g, path, opts)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Epoch() != eng.Epoch() {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), eng.Epoch())
	}
	if restored.Partitions() != eng.Partitions() || restored.Trajectories() != eng.Trajectories() {
		t.Fatalf("restored layout %d/%d, want %d/%d", restored.Partitions(),
			restored.Trajectories(), eng.Partitions(), eng.Trajectories())
	}
	if restored.IndexInfo() != eng.IndexInfo() {
		t.Fatalf("IndexInfo = %q, want %q", restored.IndexInfo(), eng.IndexInfo())
	}
	c1, w1, u1, f1 := eng.IndexMemory()
	c2, w2, u2, f2 := restored.IndexMemory()
	if c1 != c2 || w1 != w2 || u1 != u2 || f1 != f2 {
		t.Fatalf("IndexMemory differs: %d/%d/%d/%d vs %d/%d/%d/%d", c1, w1, u1, f1, c2, w2, u2, f2)
	}
	assertSameAnswers(t, eng, restored, qs, "restored")

	if _, err := LoadSnapshotFile(nil, path, opts); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestSnapshotFileAtomic: SnapshotFile publishes via temp file + rename —
// the directory never holds a partial file under the target name, temp
// files never survive, and overwriting an existing snapshot works.
func TestSnapshotFileAtomic(t *testing.T) {
	g, eng, qs := lifecycleEngine(t, Options{Partition: ByZone})
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotName(0))

	st, err := eng.SnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != st.Bytes {
		t.Fatalf("snapshot file: %v, size %d want %d", err, fi.Size(), st.Bytes)
	}
	if st.Path != path {
		t.Fatalf("stats Path %q, want %q", st.Path, path)
	}
	// Overwrite: a second snapshot replaces the first atomically.
	if _, err := eng.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s survived", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in snapshot dir, want 1", len(entries))
	}

	restored, err := LoadSnapshotFile(g, path, Options{Partition: ByZone})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, eng, restored, qs, "file round trip")

	// A write into a missing directory fails without touching the target.
	if _, err := eng.SnapshotFile(filepath.Join(dir, "missing", SnapshotName(0))); err == nil {
		t.Fatal("snapshot into missing directory succeeded")
	}
	// Corruption fails closed at load.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	bad := filepath.Join(dir, "corrupt.snt")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(g, bad, Options{Partition: ByZone}); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
	if _, err := LoadSnapshotFile(g, filepath.Join(dir, "nope.snt"), Options{}); err == nil {
		t.Fatal("missing snapshot loaded")
	}
}

// TestSnapshotWhileServing (-race): Snapshot pins one published epoch while
// queries and an Extend run concurrently; the captured snapshot must load
// into a consistent engine regardless of which side won the race.
func TestSnapshotWhileServing(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	qs := ds.MakeQueries(0.05, 5, cfg.Seed+1)
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	cut := cuts[len(cuts)/2]
	eng, err := NewEngine(ds.G, ds.Store.Slice(0, cut), Options{Partition: ByZone})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				q := qs[i%len(qs)]
				if _, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := eng.Extend(ds.Store.Slice(cut, ds.Store.Len())); err != nil {
			t.Error(err)
		}
	}()

	var snaps [][]byte
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if _, err := eng.Snapshot(&buf); err != nil {
			t.Error(err)
			break
		}
		snaps = append(snaps, buf.Bytes())
	}
	close(stop)
	wg.Wait()

	for i, data := range snaps {
		restored, err := LoadSnapshotFile(ds.G, writeSnapshotImage(t, data), Options{Partition: ByZone})
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if restored.Epoch() > eng.Epoch() {
			t.Fatalf("snapshot %d epoch %d beyond writer's %d", i, restored.Epoch(), eng.Epoch())
		}
		q := qs[i%len(qs)]
		if _, err := restored.Query(Query{Path: q.Path, Around: q.T0, Beta: 20}); err != nil {
			t.Fatalf("snapshot %d: query: %v", i, err)
		}
	}
}

// TestLoadedAccEstimatorMatchesBuilt: the estimator is a serving-time
// choice, not part of the persisted index. An engine snapshotted under
// CSSFast and restored under CSSAcc — through the copying and the mapped
// loader — answers every query exactly like a freshly built CSSAcc engine,
// because formula (2)'s histograms are derived from the restored index
// rather than read from the file. Caches are off so every answer is
// computed.
func TestLoadedAccEstimatorMatchesBuilt(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	qs := ds.MakeQueries(0.05, 5, cfg.Seed+1)
	opts := func(mode EstimatorMode) Options {
		return Options{Partition: ByZone, Estimator: mode, DisableCache: true, DisableFullResultCache: true}
	}
	fast, err := NewEngine(ds.G, ds.Store, opts(EstimatorCSSFast))
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewEngine(ds.G, ds.Store, opts(EstimatorCSSAcc))
	if err != nil {
		t.Fatal(err)
	}
	st, err := fast.SnapshotFileIn(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	copied, err := LoadSnapshotFile(ds.G, st.Path, opts(EstimatorCSSAcc))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadSnapshotFileMapped(ds.G, st.Path, opts(EstimatorCSSAcc))
	if err != nil {
		t.Fatal(err)
	}

	ask := func(eng *Engine, q workload.Query) *Result {
		t.Helper()
		res, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fastSkips, accSkips := 0, 0
	for _, q := range qs {
		want := ask(built, q)
		accSkips += want.EstimatorSkips
		fastSkips += ask(fast, q).EstimatorSkips
		for _, r := range []struct {
			name string
			eng  *Engine
		}{{"copied", copied}, {"mapped", mapped}} {
			got := ask(r.eng, q)
			if math.Float64bits(got.MeanSeconds) != math.Float64bits(want.MeanSeconds) ||
				got.IndexScans != want.IndexScans || got.EstimatorSkips != want.EstimatorSkips {
				t.Fatalf("%s CSSAcc load on %v: mean %v, %d scans, %d skips; built CSSAcc: %v, %d, %d",
					r.name, q.Path, got.MeanSeconds, got.IndexScans, got.EstimatorSkips,
					want.MeanSeconds, want.IndexScans, want.EstimatorSkips)
			}
		}
	}
	// Formula (2) must actually be in play, or the comparison shows nothing.
	if accSkips == fastSkips {
		t.Fatalf("CSSAcc and CSSFast skip the same %d sub-queries over %d queries", accSkips, len(qs))
	}
	t.Logf("%d queries: CSSAcc skipped %d sub-queries, CSSFast %d", len(qs), accSkips, fastSkips)
}

// writeSnapshotImage writes snapshot bytes to a fresh file and returns its
// path, for the file loaders.
func writeSnapshotImage(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), SnapshotName(0))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
