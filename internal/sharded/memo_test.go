package sharded

import (
	"context"
	"testing"

	"pathhist"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// TestShardedTerminalMemoSurvivesMerge asks one night-time query, whose
// sub-queries end in the terminal [0, tmax] fallback, three times on 1-, 2-
// and 4-shard clusters. Every answer must equal the unsharded engine's, and
// afterwards every shard's memoised terminal histogram must still equal a
// fresh hist.FromSamples of the shard's scan: the router unions the memo
// histograms but must never recycle them.
func TestShardedTerminalMemoSurvivesMerge(t *testing.T) {
	ds := testDataset(t)
	ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	tp := ds.Store.Get(0).Path()
	q := pathhist.Query{Path: append(network.Path(nil), tp[:min(6, len(tp))]...), Around: 3*3600 + 600, WindowSeconds: 900, Beta: 60}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			compareShardedVsPublic(t, "terminal-memo", n, q, got, want)
		}
		reused := 0
		for si := 0; si < n; si++ {
			ix := c.Engine(si).QueryEngine().Index()
			_, tmax := ix.TimeRange()
			iv := snt.NewFixed(0, tmax+1)
			for _, e := range q.Path {
				_, _, h, filled, ok := ix.WholeSegment(network.Path{e}, iv, snt.NoFilter, 0, c.ladder.BucketWidth)
				if !ok {
					continue
				}
				if !filled {
					reused++
				}
				xs, _ := ix.GetTravelTimes(network.Path{e}, iv, snt.NoFilter, 0)
				if !histsEqual(h, hist.FromSamples(xs, c.ladder.BucketWidth)) {
					t.Fatalf("N=%d shard %d segment %d: memo histogram no longer matches the scan", n, si, e)
				}
			}
		}
		if reused == 0 {
			t.Fatalf("N=%d: the query filled no shard's terminal memo", n)
		}
		c.Close()
	}
}
