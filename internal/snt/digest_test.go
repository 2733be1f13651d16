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
// zeroed) over SmallConfig's dataset. The first recording, before the build
// pipeline was parallelised and its temporal builder made dense, pinned
// that neither changed a byte of the index; they were recorded again at
// snapshot format 6, whose forest section carries the cumulative column
// in place of the per-segment A and TT columns.
var buildDigests = map[string]string{
	"full":   "84242578e0e979813c2c81bd2a120d38790e0cdb72e264f130016e32313a4aed",
	"7-day":  "6e6025590d1bf35130efb911ef0f82020f74c864fd848ebb11a9621c9f7e9fe4",
	"extend": "7383dea4cdd3091a881d5e5c9a9a4e715f6f8cb1a766e96e9d6bec15e486587b",
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
