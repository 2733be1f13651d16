package snt

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"testing"

	"pathhist/internal/workload"
)

// buildDigests are the SHA-256 digests of WriteSnapshot (epoch 1, SetupTime
// zeroed) over SmallConfig's dataset. They were recorded before the build
// pipeline was parallelised and its temporal builder made dense, and pin
// that neither changed a byte of the index.
var buildDigests = map[string]string{
	"full":   "19005c3bc0d99edeab6f882e055d537a160983d3ba30b165b80c2af1d05cee57",
	"7-day":  "ffb21e53e46513d1613f1d87bb8984eb734cf495b76bc1911d55fafa0247ee58",
	"extend": "20c9586606ee3f06380fe0918155e69a3f92d1914d96a17e25ac12277ace9e99",
}

// snapshotDigest hashes the index's snapshot with the wall-clock build time
// zeroed, the only field two builds of one store may differ in.
func snapshotDigest(t *testing.T, ix *Index) string {
	t.Helper()
	ix.stats.SetupTime = 0
	h := sha256.New()
	if _, err := ix.WriteSnapshot(h, 1); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildSnapshotDigest: a FULL build, a 7-day partitioned build, and a
// FULL build of all but a held-back batch followed by one Extend with it
// serialise to the recorded bytes, whether the build runs on one core or
// two.
func TestBuildSnapshotDigest(t *testing.T) {
	ds := workload.BuildDataset(workload.SmallConfig())
	cuts := ds.Store.QuiescentCuts()
	cut := cuts[len(cuts)*9/10]
	for _, procs := range []int{1, 2} {
		t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := map[string]string{
				"full":  snapshotDigest(t, Build(ds.G, ds.Store, Options{})),
				"7-day": snapshotDigest(t, Build(ds.G, ds.Store, Options{PartitionDays: 7})),
			}
			base := Build(ds.G, ds.Store.Slice(0, cut), Options{})
			ext, err := base.Extend(ds.Store.Slice(cut, ds.Store.Len()))
			if err != nil {
				t.Fatal(err)
			}
			got["extend"] = snapshotDigest(t, ext)
			for name, want := range buildDigests {
				if got[name] != want {
					t.Errorf("%s: snapshot digest %s, want %s", name, got[name], want)
				}
			}
		})
	}
}
