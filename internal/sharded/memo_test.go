package sharded

import (
	"context"
	"testing"

	"pathhist"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// TestShardedTerminalMemoSurvivesMerge asks night-time queries, whose
// sub-queries end in the terminal [0, tmax] fallback, three times each on
// 1-, 2- and 4-shard clusters. Every answer must equal the unsharded
// engine's, and afterwards every shard's memoised terminal histogram must
// still equal a fresh hist.FromSamples of the shard's scan: the router
// unions the memo histograms but must never alter them. Each answer must
// also book its effort as an unsharded engine with a fresh memo and no
// full-result cache does: a memo reuse is a cache hit, not an index scan,
// and a shard without the segment's records neither reads nor fills a memo
// (some of these paths run through segments a 4-shard stripe lacks).
func TestShardedTerminalMemoSurvivesMerge(t *testing.T) {
	ds := testDataset(t)
	var qs []pathhist.Query
	for k := 0; k < min(200, ds.Store.Len()); k += 7 {
		tp := ds.Store.Get(traj.ID(k)).Path()
		qs = append(qs, pathhist.Query{Path: append(network.Path(nil), tp[:min(6, len(tp))]...), Around: 3*3600 + 600, WindowSeconds: 900, Beta: 60})
	}
	for _, n := range []int{1, 2, 4} {
		c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), pathhist.Options{DisableFullResultCache: true})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for rep := 0; rep < 3; rep++ {
			for qi, q := range qs {
				got, err := c.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				compareShardedVsPublic(t, "terminal-memo", n, q, got, want)
				if got.IndexScans != want.IndexScans || got.CacheHits != want.CacheHits {
					t.Fatalf("N=%d rep %d query %d: booked %d scans + %d memo hits, unsharded %d + %d",
						n, rep, qi, got.IndexScans, got.CacheHits, want.IndexScans, want.CacheHits)
				}
				hits += got.CacheHits
			}
		}
		ref.Close()
		if hits == 0 {
			t.Fatalf("N=%d: no attempt was answered from the terminal memos", n)
		}
		reused := 0
		for si := 0; si < n; si++ {
			ix := c.shards[si].eng.QueryEngine().Index()
			_, tmax := ix.TimeRange()
			iv := snt.NewFixed(0, tmax+1)
			for _, q := range qs {
				for _, e := range q.Path {
					_, _, h, filled, ok := ix.WholeSegment(network.Path{e}, iv, snt.NoFilter, 0, c.ladder.BucketWidth)
					if !ok {
						continue
					}
					if !filled {
						reused++
					}
					sc := snt.AcquireScratch()
					xs, _ := ix.GetTravelTimesWith(sc, network.Path{e}, iv, snt.NoFilter, 0)
					same := histsEqual(h, hist.FromSamples(xs, c.ladder.BucketWidth))
					snt.ReleaseScratch(sc)
					if !same {
						t.Fatalf("N=%d shard %d segment %d: memo histogram no longer matches the scan", n, si, e)
					}
				}
			}
		}
		if reused == 0 {
			t.Fatalf("N=%d: the queries filled no shard's terminal memo", n)
		}
		c.Close()
	}
}
