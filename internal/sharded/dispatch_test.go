package sharded

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pathhist"
	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// p99BySort is latencyRing.p99's definition: the (n−1)·99/100-th entry of
// the sorted history, 0 below eight entries.
func p99BySort(r *latencyRing) time.Duration {
	if r.n < 8 {
		return 0
	}
	tmp := append([]time.Duration(nil), r.buf[:r.n]...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(r.n-1)*99/100]
}

// TestShardedLatencyRingP99 checks the selection against the sorting
// definition on random rings of every fill level, with heavy ties and with
// the ring wrapped, and that it allocates nothing.
func TestShardedLatencyRingP99(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		r := &latencyRing{}
		spread := []int64{1, 3, 50, 1 << 20}[trial%4] // 1 and 3: mostly ties
		for i, n := 0, rng.Intn(301); i < n; i++ {
			r.record(time.Duration(rng.Int63n(spread)))
			if got, want := r.p99(), p99BySort(r); got != want {
				t.Fatalf("trial %d after %d records (n %d): p99 %v, sorted %v", trial, i+1, r.n, got, want)
			}
		}
	}
	r := &latencyRing{}
	for i := 0; i < latencyRingSize; i++ {
		r.record(time.Duration(i))
	}
	if a := testing.AllocsPerRun(100, func() { r.p99() }); a != 0 {
		t.Fatalf("p99 allocates %v times per call", a)
	}
}

// dispatchCluster is a one-shard cluster over a handful of trips, enough to
// drive the dispatcher.
func dispatchCluster(b *testing.B) *Cluster {
	g, ids := network.PaperExample()
	store := traj.NewStore()
	for d := int64(0); d < 4; d++ {
		store.Add(0, []traj.Entry{{Edge: ids["A"], T: d * 86400, TT: 5}, {Edge: ids["B"], T: d*86400 + 5, TT: 5}})
	}
	c, err := Build(g, store, Config{Shards: 1, Opts: pathhist.Options{}})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkDispatch is the dispatcher's own cost per call — failpoint
// sites, replica pick, budget context, hedge timer, attempt goroutine and
// result hand-off — around an op that does nothing.
func BenchmarkDispatch(b *testing.B) {
	c := dispatchCluster(b)
	defer c.Close()
	ctx := context.Background()
	s := c.shards[0]
	op := func(context.Context) (scanOut, error) { return scanOut{}, nil }
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.dispatch(ctx, s, op); err != nil {
			b.Fatal(err)
		}
	}
}
