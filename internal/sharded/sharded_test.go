package sharded

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pathhist"
	"pathhist/internal/failpoint"
	"pathhist/internal/hist"
	"pathhist/internal/metrics"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

func testDataset(t *testing.T) *workload.Dataset {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 15
	cfg.Days = 30
	cfg.TargetTrips = 500
	return workload.BuildDataset(cfg)
}

// copyStore deep-copies a store so one dataset can seed several engines
// (NewEngine and Build sort their store and reassign ids in place).
func copyStore(s *traj.Store) *traj.Store { return s.Slice(0, s.Len()) }

// randomQuery draws a query of the differential mix: sub-paths of real
// trajectories (occasionally perturbed into likely-unindexed paths), fixed
// and periodic intervals, optional user filters, varying β.
func randomQuery(rng *rand.Rand, ds *workload.Dataset, tmin, tmax int64) pathhist.Query {
	tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
	tp := tr.Path()
	plen := 1 + rng.Intn(6)
	if plen > len(tp) {
		plen = len(tp)
	}
	off := rng.Intn(len(tp) - plen + 1)
	p := append(network.Path(nil), tp[off:off+plen]...)
	q := pathhist.Query{Path: p}
	switch rng.Intn(3) {
	case 0:
		q.From = tmin + rng.Int63n(tmax-tmin)
		if rng.Intn(2) == 0 {
			q.Until = q.From + rng.Int63n(tmax-q.From) + 1
		}
	case 1:
		q.Around = tmin + rng.Int63n(tmax-tmin)
		q.WindowSeconds = 900 + rng.Int63n(3600)
	default:
		q.Periodic = true
		q.Around = tmin + rng.Int63n(tmax-tmin)
	}
	if rng.Intn(3) == 0 {
		q.FilterUser = true
		q.User = traj.UserID(rng.Intn(15))
	}
	if rng.Intn(4) != 0 {
		q.Beta = 1 + rng.Intn(30)
	}
	return q
}

func histsEqual(a, b *hist.Histogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.BucketWidth() != b.BucketWidth() || a.NumSamples() != b.NumSamples() ||
		a.Min() != b.Min() || a.Max() != b.Max() || a.Total() != b.Total() {
		return false
	}
	w := a.BucketWidth()
	for x := a.Min() / w * w; x <= a.Max(); x += w {
		if a.Count(x) != b.Count(x) {
			return false
		}
	}
	return true
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardedMatchesUnsharded(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts pathhist.Options
	}{
		{"default", pathhist.Options{}},
		{"sigmaL-nocache", pathhist.Options{
			LongestPrefixSplitting: true,
			DisableCache:           true,
			DisableFullResultCache: true,
		}},
		{"partitioned", pathhist.Options{PartitionDays: 7}},
		// The ladder options: one Options → ladder mapping serves both sides.
		{"zonebetas", pathhist.Options{ZoneBetas: map[pathhist.Zone]int{pathhist.ZoneRural: 3, pathhist.ZoneCity: 40}}},
		{"alphas-bucket", pathhist.Options{IntervalSizes: []int64{600, 1200, 5400}, BucketSeconds: 7}},
		{"regular-p2", pathhist.Options{RegularP: 2}},
		{"mdm", pathhist.Options{Partition: pathhist.MainRoadUserFilters}},
	} {
		ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: n, Opts: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(97 + n)))
			for trial := 0; trial < 80; trial++ {
				q := randomQuery(rng, ds, tmin, tmax)
				want, err := ref.Query(q)
				if err != nil {
					t.Fatalf("%s/N=%d: unsharded: %v", tc.name, n, err)
				}
				got, err := c.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s/N=%d: sharded: %v (query %+v)", tc.name, n, err, q)
				}
				if got.Partial || len(got.Missing) != 0 || got.Restarts != 0 {
					t.Fatalf("%s/N=%d: unexpected degradation %+v", tc.name, n, got)
				}
				compareShardedVsPublic(t, tc.name, n, q, got, want)
			}
			c.Close()
		}
	}
}

// TestShardedCensusOneShardEmpty pins the shard-side census rule: a shard may
// skip a periodic window only when its bound is zero, never when it is
// merely below β, because β is met by the sum over shards. The first stripe
// holds morning trips only — its evening census is empty — and the evening
// trips of the other two stripes reach β together but not alone; answers
// must equal the unsharded engine's, at the first rung.
func TestShardedCensusOneShardEmpty(t *testing.T) {
	g, ids := network.PaperExample()
	store := traj.NewStore()
	rng := rand.New(rand.NewSource(5))
	routes := [][]string{{"A", "B", "E"}, {"A", "C", "D", "E"}, {"A", "B", "F"}}
	for d := int64(0); d < 30; d++ {
		for k := 0; k < 20; k++ {
			t0 := d*86400 + 7*3600 + rng.Int63n(2*3600)
			if d >= 10 && k < 6 {
				t0 = d*86400 + 18*3600 + rng.Int63n(1800) // evening, days 10+ only
			}
			var seq []traj.Entry
			for _, name := range routes[rng.Intn(len(routes))] {
				tt := int32(3 + rng.Intn(10))
				seq = append(seq, traj.Entry{Edge: ids[name], T: t0, TT: tt})
				t0 += int64(tt)
			}
			store.Add(traj.UserID(rng.Intn(4)), seq)
		}
	}
	const beta = 100 // 60 evening trips per stripe of 10 days
	evening := int64(18*3600 + 900)
	for _, opts := range []pathhist.Options{
		{DisableCache: true, DisableFullResultCache: true},
		{DisableCache: true, DisableFullResultCache: true, LongestPrefixSplitting: true},
	} {
		ref, err := pathhist.NewEngine(g, copyStore(store), opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(g, copyStore(store), Config{Shards: 3, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		// The premise, read off the shards' own indexes.
		sum := 0
		for i := 0; i < 3; i++ {
			ix, _ := c.shards[i].eng.QueryEngine().Snapshot()
			bound := ix.Frozen().Get(ids["A"]).TodBound(18*3600, 1800)
			if (i == 0) != (bound == 0) || bound >= beta {
				t.Fatalf("shard %d: evening bound %d", i, bound)
			}
			sum += bound
		}
		if sum < beta {
			t.Fatalf("evening bounds sum to %d, below β", sum)
		}
		for _, q := range []pathhist.Query{
			{Path: network.Path{ids["A"]}, Around: evening, WindowSeconds: 1800, Beta: beta},
			{Path: network.Path{ids["A"], ids["B"], ids["E"]}, Around: evening, WindowSeconds: 1800, Beta: 30},
			{Path: network.Path{ids["A"], ids["C"], ids["D"], ids["E"]}, Around: evening, WindowSeconds: 1800, Beta: beta},
			{Path: network.Path{ids["A"]}, Around: evening, WindowSeconds: 1800, Beta: 20, FilterUser: true, User: 1},
			{Path: network.Path{ids["A"], ids["B"]}, Around: 3 * 3600, WindowSeconds: 900, Beta: 5}, // empty on every shard
		} {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			compareShardedVsPublic(t, "census", 3, q, got, want)
		}
		// β was met by summing the two evening shards, at the asked window.
		got, err := c.Query(context.Background(), pathhist.Query{Path: network.Path{ids["A"]}, Around: evening, WindowSeconds: 1800, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Subs) != 1 || got.Subs[0].N != beta || got.IndexScans != 1 {
			t.Fatalf("A at β=%d: %d subs, %d samples, %d scans", beta, len(got.Subs), got.Subs[0].N, got.IndexScans)
		}
		// The union census: the summed evening bound is exactly where the
		// router stops dispatching, and it draws the line where the
		// unsharded census does. A rejected rung costs no dispatch.
		rs, refIx := pinAll(c), ref.QueryEngine().Index()
		p, iv := network.Path{ids["A"]}, snt.PeriodicAround(evening, 1800)
		for _, b := range []int{sum, sum + 1} {
			rejected := snt.CannotReachAll(rs.ixs, p, iv, b)
			if rejected != (b > sum) || rejected != refIx.CannotReach(p, iv, b) {
				t.Fatalf("β=%d over bound sum %d: union rejects %v, unsharded %v", b, sum, rejected, refIx.CannotReach(p, iv, b))
			}
			o, dispatched := rung(t, c, rs, query.SPQ{Path: p, Interval: iv, Filter: snt.NoFilter, Beta: b})
			if rejected && (o.N != 0 || dispatched != 0) || !rejected && (o.N != sum || dispatched != 3) {
				t.Fatalf("β=%d: %d samples after %d dispatches", b, o.N, dispatched)
			}
		}
		c.Close()
	}

	// A shard without the first segment adds 0 to the bound; with no shard
	// holding it the rung is dispatched and falls back to the speed limit.
	g, ids, store = segmentStripesStore()
	ref, err := pathhist.NewEngine(g, copyStore(store), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, n := range []int{3, 4} {
		c, err := Build(g, copyStore(store), Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		rs := pinAll(c)
		if rs.ixs[0].Frozen().Get(ids["C"]) != nil {
			t.Fatalf("N=%d: the first stripe holds C", n)
		}
		const cEvening = 120 // 6 trips a day on days 10–29, all inside [18:00, 18:30)
		iv := snt.PeriodicAround(evening, 1800)
		for _, b := range []int{cEvening, cEvening + 1} {
			o, dispatched := rung(t, c, rs, query.SPQ{Path: network.Path{ids["C"]}, Interval: iv, Filter: snt.NoFilter, Beta: b})
			if b > cEvening && (o.N != 0 || dispatched != 0) || b == cEvening && (o.N != cEvening || dispatched != int64(n)) {
				t.Fatalf("N=%d C at β=%d: %d samples after %d dispatches", n, b, o.N, dispatched)
			}
		}
		o, dispatched := rung(t, c, rs, query.SPQ{Path: network.Path{ids["E"]}, Interval: iv, Filter: snt.NoFilter, Beta: 5})
		if !o.Fallback || o.N != 1 || dispatched != int64(n) {
			t.Fatalf("N=%d E, held nowhere: fallback %v, %d samples after %d dispatches", n, o.Fallback, o.N, dispatched)
		}
		for _, q := range []pathhist.Query{
			{Path: network.Path{ids["C"]}, Around: evening, WindowSeconds: 1800, Beta: cEvening + 1},
			{Path: network.Path{ids["C"], ids["D"]}, Around: evening, WindowSeconds: 1800, Beta: 30},
			{Path: network.Path{ids["E"]}, Around: evening, WindowSeconds: 1800, Beta: 5},
		} {
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			compareShardedVsPublic(t, "segment-stripes", n, q, got, want)
		}
		c.Close()
	}
}

// segmentStripesStore spreads segments unevenly over start time. Every day
// has 20 morning trips on A→B until day 10, 14 after it; from day 10 on, 6
// evening trips on C→D; on days 25–29, 2 evening trips on A→B; on days
// 27–29, 2 night trips on F. Nothing uses E. Striped in start order over
// three or four shards, the first stripe ends before day 10 and lacks C and
// D; over one to four, F lies on the last stripe alone and E on none.
func segmentStripesStore() (*network.Graph, map[string]network.EdgeID, *traj.Store) {
	g, ids := network.PaperExample()
	store := traj.NewStore()
	rng := rand.New(rand.NewSource(8))
	trip := func(t0 int64, route ...string) {
		var seq []traj.Entry
		for _, name := range route {
			tt := int32(3 + rng.Intn(40))
			seq = append(seq, traj.Entry{Edge: ids[name], T: t0, TT: tt})
			t0 += int64(tt)
		}
		store.Add(traj.UserID(rng.Intn(4)), seq)
	}
	for d := int64(0); d < 30; d++ {
		morning := 20
		if d >= 10 {
			morning = 14
		}
		for k := 0; k < morning; k++ {
			trip(d*86400+7*3600+rng.Int63n(2*3600), "A", "B")
		}
		for k := 0; d >= 10 && k < 6; k++ {
			trip(d*86400+18*3600+rng.Int63n(1700), "C", "D")
		}
		for k := 0; d >= 25 && k < 2; k++ {
			trip(d*86400+18*3600+rng.Int63n(1700), "A", "B")
		}
		for k := 0; d >= 27 && k < 2; k++ {
			trip(d*86400+3*3600+rng.Int63n(1700), "F")
		}
	}
	return g, ids, store
}

// pinAll pins every shard's snapshot, as runOnce does for a live set of all
// shards.
func pinAll(c *Cluster) *runState {
	rs := &runState{}
	for i := range c.shards {
		ix, _ := c.shards[i].eng.QueryEngine().Snapshot()
		rs.live, rs.ixs = append(rs.live, i), append(rs.ixs, ix)
		if _, tmax := ix.TimeRange(); i == 0 || tmax > rs.tmax {
			rs.tmax = tmax
		}
	}
	return rs
}

// rung runs one scatter attempt and returns it with the shard dispatches it
// cost.
func rung(t *testing.T, c *Cluster, rs *runState, q query.SPQ) (query.Outcome, int64) {
	t.Helper()
	d0 := c.Counters().ShardDispatches.Load()
	o, err := c.scatterScan(context.Background(), rs, q)
	if err != nil {
		t.Fatal(err)
	}
	return o, c.Counters().ShardDispatches.Load() - d0
}

// TestShardedTerminalStatsMatchUnsharded pins the router's β ≤ 0 path,
// where every shard returns only the count, sum and histogram of its own
// samples: at one to four shards, each attempt's statistics equal the
// unsharded scan's, for samples all on one shard (F), for shards that hold
// the segment without a sample in the window (A in the evening), for a
// segment held nowhere (E: the speed-limit fallback) and for paths with no
// sample anywhere (a failed attempt). Whole queries that end in the
// terminal [0, tmax] fallback match the estimator-off unsharded engine sub
// for sub, MeanX bits included.
func TestShardedTerminalStatsMatchUnsharded(t *testing.T) {
	g, ids, store := segmentStripesStore()
	ref, err := pathhist.NewEngine(g, copyStore(store), ShardOptions(pathhist.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refIx := ref.QueryEngine().Index()
	_, refMax := refIx.TimeRange()
	all := snt.NewFixed(0, refMax+1)
	evening := snt.PeriodicAround(18*3600+900, 1800)
	attempts := []query.SPQ{
		{Path: network.Path{ids["F"]}, Interval: all},
		{Path: network.Path{ids["A"]}, Interval: all},
		{Path: network.Path{ids["A"]}, Interval: evening},
		{Path: network.Path{ids["A"], ids["B"]}, Interval: evening},
		{Path: network.Path{ids["C"], ids["D"]}, Interval: evening},
		{Path: network.Path{ids["C"], ids["D"]}, Interval: snt.NewFixed(25*86400, refMax+1)},
		{Path: network.Path{ids["E"]}, Interval: all},
		{Path: network.Path{ids["A"], ids["B"]}, Interval: snt.PeriodicAround(3*3600, 900)},
	}
	queries := []pathhist.Query{
		{Path: network.Path{ids["F"]}, Around: 12 * 3600, WindowSeconds: 900, Beta: 50},
		{Path: network.Path{ids["A"]}, Around: 18*3600 + 900, WindowSeconds: 1800, Beta: 400},
		{Path: network.Path{ids["C"], ids["D"]}, Around: 3 * 3600, WindowSeconds: 900, Beta: 30},
	}
	for n := 1; n <= 4; n++ {
		c, err := Build(g, copyStore(store), Config{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		rs := pinAll(c)
		for _, q := range attempts {
			q.Filter = snt.NoFilter
			sc := snt.AcquireScratch()
			xs, fallback := refIx.GetTravelTimesWith(sc, q.Path, q.Interval, q.Filter, 0)
			want := query.OutcomeOf(xs, c.ladder.BucketWidth, fallback)
			snt.ReleaseScratch(sc)
			got, dispatched := rung(t, c, rs, q)
			if dispatched != int64(n) {
				t.Fatalf("N=%d %v: %d dispatches", n, q.Path, dispatched)
			}
			if got.N != want.N || got.Sum != want.Sum || got.Fallback != want.Fallback || !histsEqual(got.Hist, want.Hist) {
				t.Fatalf("N=%d %v %v: (n %d, sum %d, fallback %v) vs unsharded (n %d, sum %d, fallback %v)",
					n, q.Path, q.Interval, got.N, got.Sum, got.Fallback, want.N, want.Sum, want.Fallback)
			}
		}
		terminal := 0
		for _, q := range queries {
			spq, err := pathhist.StrictPathQuery(g, q, refMax)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.QueryEngine().TripQuery(spq)
			got, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Subs) != len(want.Subs) {
				t.Fatalf("N=%d %+v: %d subs vs %d", n, q, len(got.Subs), len(want.Subs))
			}
			for i := range got.Subs {
				gs, ws := &got.Subs[i], &want.Subs[i]
				if !gs.Interval.IsPeriodic() {
					terminal++
				}
				if gs.N != ws.N || gs.Sum != ws.Sum || gs.Fallback != ws.Fallback || gs.Interval != ws.Interval ||
					math.Float64bits(gs.MeanX()) != math.Float64bits(ws.MeanX()) || !histsEqual(gs.Hist, ws.Hist) {
					t.Fatalf("N=%d %+v sub %d: (n %d, sum %d, mean %v) vs unsharded (n %d, sum %d, mean %v)",
						n, q, i, gs.N, gs.Sum, gs.MeanX(), ws.N, ws.Sum, ws.MeanX())
				}
			}
		}
		if terminal < len(queries) {
			t.Fatalf("N=%d: %d terminal subs, want one per query at least", n, terminal)
		}
		c.Close()
	}
}

// compareShardedVsPublic compares a routed result against the public
// pathhist result (which carries the same sub-query payload).
func compareShardedVsPublic(t *testing.T, name string, n int, q pathhist.Query, got *Result, want *pathhist.Result) {
	t.Helper()
	tag := name + "/N=" + itoa(n)
	if !histsEqual(got.Hist, want.Histogram) {
		t.Fatalf("%s: histogram mismatch for %+v", tag, q)
	}
	if len(got.Subs) != len(want.Subs) {
		t.Fatalf("%s: %d subs vs %d for %+v", tag, len(got.Subs), len(want.Subs), q)
	}
	for i := range got.Subs {
		gs, ws := &got.Subs[i], &want.Subs[i]
		if len(gs.Path) != len(ws.Path) {
			t.Fatalf("%s: sub %d path %v vs %v for %+v", tag, i, gs.Path, ws.Path, q)
		}
		for j := range gs.Path {
			if gs.Path[j] != ws.Path[j] {
				t.Fatalf("%s: sub %d path %v vs %v for %+v", tag, i, gs.Path, ws.Path, q)
			}
		}
		if gs.Fallback != ws.Fallback {
			t.Fatalf("%s: sub %d fallback %v vs %v for %+v", tag, i, gs.Fallback, ws.Fallback, q)
		}
		if gs.N != ws.Samples {
			t.Fatalf("%s: sub %d %d samples vs %d for %+v", tag, i, gs.N, ws.Samples, q)
		}
		if !histsEqual(gs.Hist, ws.Histogram) {
			t.Fatalf("%s: sub %d histogram mismatch for %+v", tag, i, q)
		}
		// With equal counts, equal mean bits mean equal exact sums.
		if gs.MeanX() != ws.MeanTT {
			t.Fatalf("%s: sub %d mean %v vs %v for %+v", tag, i, gs.MeanX(), ws.MeanTT, q)
		}
	}
	if got.MeanSeconds != want.MeanSeconds {
		t.Fatalf("%s: mean %v vs %v for %+v", tag, got.MeanSeconds, want.MeanSeconds, q)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestShardedConcurrentExtend ingests quiescent batches through the
// cluster's round-robin routing while queries run concurrently (the -race
// exercise), then verifies post-ingest answers are bit-identical to an
// unsharded engine fed the same batches in the same order.
func TestShardedConcurrentExtend(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) < 4 {
		t.Skip("dataset has too few quiescent cuts")
	}
	base := cuts[len(cuts)*3/5]
	var batchCuts []int
	for _, c := range cuts {
		if c > base {
			batchCuts = append(batchCuts, c)
		}
	}
	if len(batchCuts) > 6 {
		// Keep a handful of batches; each one costs two index extensions.
		step := len(batchCuts) / 6
		var kept []int
		for i := step - 1; i < len(batchCuts); i += step {
			kept = append(kept, batchCuts[i])
		}
		batchCuts = kept
	}
	bounds := append([]int{base}, batchCuts...)
	bounds = append(bounds, ds.Store.Len())

	ref, err := pathhist.NewEngine(ds.G, ds.Store.Slice(0, base), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(ds.G, ds.Store.Slice(0, base), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randomQuery(rng, ds, tmin, tmax)
				if _, err := c.Query(ctx, q); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(int64(7 + w))
	}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi {
			continue
		}
		if si, _, err := c.Extend(ctx, ds.Store.Slice(lo, hi)); err != nil {
			t.Fatalf("cluster extend [%d,%d) on shard %d: %v", lo, hi, si, err)
		}
		if _, err := ref.Extend(ds.Store.Slice(lo, hi)); err != nil {
			t.Fatalf("reference extend [%d,%d): %v", lo, hi, err)
		}
	}
	close(stop)
	wg.Wait()
	if c.Trajectories() != ds.Store.Len() {
		t.Fatalf("cluster indexes %d trajectories, want %d", c.Trajectories(), ds.Store.Len())
	}

	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		q := randomQuery(rng, ds, tmin, tmax)
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("sharded: %v (query %+v)", err, q)
		}
		compareShardedVsPublic(t, "post-extend", 4, q, got, want)
	}
}

// TestShardedOneShardDownPartial fault-injects shard 2 of 4 hard down and
// verifies the partial-result contract: queries still answer, marked
// partial with the missing shard listed, and the merged histogram is
// exactly the full answer over the surviving shards' stripes. It then lifts
// the fault and verifies the recovery probe restores full answers.
func TestShardedOneShardDownPartial(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()

	// Reference for the degraded period: an unsharded engine over the
	// surviving stripes (0, 1, 3) concatenated in shard order.
	stripes := Stripes(copyStore(ds.Store), 4)
	survivors := traj.NewStore()
	for _, si := range []int{0, 1, 3} {
		for i := range stripes[si].All() {
			tr := &stripes[si].All()[i]
			survivors.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
		}
	}
	partialRef, err := pathhist.NewEngine(ds.G, survivors, pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullRef, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}

	counters := &metrics.ServerCounters{}
	c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: 4, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	boom := errors.New("injected shard fault")
	site := failpoint.ShardDown + ".2"
	failpoint.Enable(site, failpoint.Injection{Err: boom})
	defer failpoint.Disable(site)

	ctx := context.Background()
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		q := randomQuery(rng, ds, tmin, tmax)
		want, err := partialRef.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("trial %d: %v (query %+v)", trial, err, q)
		}
		if !got.Partial || len(got.Missing) != 1 || got.Missing[0] != 2 {
			t.Fatalf("trial %d: partial=%v missing=%v, want partial with shard 2", trial, got.Partial, got.Missing)
		}
		compareShardedVsPublic(t, "one-down", 4, q, got, want)
	}
	if n := counters.ShardFailures.Load(); n < 3 {
		t.Fatalf("ShardFailures = %d, want >= 3", n)
	}
	if n := counters.PartialResponses.Load(); n != 12 {
		t.Fatalf("PartialResponses = %d, want 12", n)
	}
	if n := counters.ShardsShed.Load(); n == 0 {
		t.Fatal("expected the down shard to be shed before dispatch after the failure threshold")
	}
	st := c.Status()
	if st[2].State != "down" && st[2].State != "recovering" {
		t.Fatalf("shard 2 state = %q, want down", st[2].State)
	}

	// Lift the fault; after the probe interval the next query probes the
	// shard, restores it, and answers over all shards again.
	failpoint.Disable(site)
	time.Sleep(probeInterval + 50*time.Millisecond)
	q := randomQuery(rng, ds, tmin, tmax)
	want, err := fullRef.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("post-recovery query still partial: %+v", got)
	}
	compareShardedVsPublic(t, "recovered", 4, q, got, want)
	if st := c.Status(); st[2].State != "ready" {
		t.Fatalf("shard 2 state = %q after recovery, want ready", st[2].State)
	}
}

// TestShardedHedging pins the one-attempt dispatch: a shard slowed for
// one attempt (well inside the budget) is waited out — the answer is
// complete and bit-identical, with no restart and no hedge — and a shard
// failed for one attempt is not retried: the query restarts once without
// it and answers partial, and the next query covers every shard again.
func TestShardedHedging(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counters := &metrics.ServerCounters{}
	c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: 4, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	slow := failpoint.ShardSlow + ".1"
	failpoint.Enable(slow, failpoint.Injection{Delay: 300 * time.Millisecond, Times: 1})
	defer failpoint.Disable(slow)
	q := randomQuery(rng, ds, tmin, tmax)
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if failpoint.Hits(slow) == 0 {
		t.Fatal("the query never dispatched to shard 1")
	}
	if got.Partial || got.Restarts != 0 {
		t.Fatalf("slow-shard query degraded: %+v", got)
	}
	compareShardedVsPublic(t, "slow", 4, q, got, want)
	if h, w := counters.HedgedDispatches.Load(), counters.HedgeWins.Load(); h != 0 || w != 0 {
		t.Fatalf("HedgedDispatches = %d, HedgeWins = %d, want 0 and 0", h, w)
	}

	down := failpoint.ShardDown + ".2"
	failpoint.Enable(down, failpoint.Injection{Err: errors.New("injected shard fault"), Times: 1})
	defer failpoint.Disable(down)
	got, err = c.Query(ctx, randomQuery(rng, ds, tmin, tmax))
	if err != nil {
		t.Fatal(err)
	}
	if got.Restarts != 1 || !got.Partial || len(got.Missing) != 1 || got.Missing[0] != 2 {
		t.Fatalf("one failed attempt: restarts=%d partial=%v missing=%v, want one restart without shard 2",
			got.Restarts, got.Partial, got.Missing)
	}
	q = randomQuery(rng, ds, tmin, tmax)
	if want, err = ref.Query(q); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got.Partial || got.Restarts != 0 {
		t.Fatalf("query after the spent fault degraded: %+v", got)
	}
	compareShardedVsPublic(t, "after-fault", 4, q, got, want)
}

// TestShardedCoverageFloor verifies the 503 path: with every shard failing,
// coverage drops below the minCoverage floor and the query fails with
// ErrInsufficientCoverage instead of answering from too few shards.
func TestShardedCoverageFloor(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	failpoint.Enable(failpoint.ShardDown, failpoint.Injection{Err: errors.New("injected")})
	defer failpoint.Disable(failpoint.ShardDown)

	rng := rand.New(rand.NewSource(5))
	q := randomQuery(rng, ds, tmin, tmax)
	if _, err := c.Query(context.Background(), q); !errors.Is(err, ErrInsufficientCoverage) {
		t.Fatalf("err = %v, want ErrInsufficientCoverage", err)
	}
}

// TestReplicaDegradedLatchAppliesToAll: the serving layer's degraded latch
// (a shard-level WAL failure) belongs to the shard's store, so it shows on
// that shard alone and applies to everything the shard serves: Status
// reports it, reads still cover the shard bit-identically, and it clears.
func TestReplicaDegradedLatchAppliesToAll(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: 2, Counters: &metrics.ServerCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetDegraded(0, true)
	for i, st := range c.Status() {
		want := "ready"
		if i == 0 {
			want = "degraded"
		}
		if st.State != want {
			t.Fatalf("shard %d state = %q, want %q", i, st.State, want)
		}
	}
	q := randomQuery(rand.New(rand.NewSource(41)), ds, tmin, tmax)
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || got.Restarts != 0 {
		t.Fatalf("read with shard 0 degraded: partial=%v restarts=%d missing=%v",
			got.Partial, got.Restarts, got.Missing)
	}
	compareShardedVsPublic(t, "degraded", 2, q, got, want)
	c.SetDegraded(0, false)
	if st := c.Status()[0].State; st != "ready" {
		t.Fatalf("latch did not clear: %q", st)
	}
}

// TestShardedIngestRouting verifies degraded shards are skipped by the
// round-robin ingest router, reroutes are counted, Status shows the latch on
// that shard alone until it clears, stale batches are rejected globally,
// and a fully unhealthy cluster refuses ingest.
func TestShardedIngestRouting(t *testing.T) {
	ds := testDataset(t)
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) < 6 {
		t.Skip("dataset has too few quiescent cuts")
	}
	base := cuts[len(cuts)-5]
	counters := &metrics.ServerCounters{}
	c, err := Build(ds.G, ds.Store.Slice(0, base), Config{Shards: 4, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A batch that starts inside the indexed range must be rejected before
	// any shard sees it.
	if _, _, err := c.Extend(context.Background(), ds.Store.Slice(0, 1)); err == nil {
		t.Fatal("stale batch accepted")
	}

	c.SetDegraded(2, true)
	for i, st := range c.Status() {
		want := "ready"
		if i == 2 {
			want = "degraded"
		}
		if st.State != want {
			t.Fatalf("shard %d state = %q, want %q", i, st.State, want)
		}
	}
	bounds := append([]int{}, cuts[len(cuts)-4:]...)
	bounds = append(bounds, ds.Store.Len())
	before := make([]int, 4)
	for i := range before {
		before[i] = c.shards[i].eng.Trajectories()
	}
	for i := 0; i+1 < len(bounds); i++ {
		si, _, err := c.Extend(context.Background(), ds.Store.Slice(bounds[i], bounds[i+1]))
		if err != nil {
			t.Fatalf("extend batch %d: %v", i, err)
		}
		if si == 2 {
			t.Fatal("batch routed to degraded shard 2")
		}
	}
	if c.shards[2].eng.Trajectories() != before[2] {
		t.Fatal("degraded shard 2 grew")
	}
	if counters.IngestReroutes.Load() == 0 {
		t.Fatal("expected at least one ingest reroute")
	}
	c.SetDegraded(2, false)
	if st := c.Status()[2].State; st != "ready" {
		t.Fatalf("shard 2 state = %q after the latch cleared, want ready", st)
	}
	for i := 0; i < 4; i++ {
		c.SetDegraded(i, true)
	}
	if _, _, err := c.Extend(context.Background(), ds.Store.Slice(0, 0)); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	if _, err := c.RouteIngest(nil, func(int) error {
		t.Fatal("ingest function called with every shard degraded")
		return nil
	}); !errors.Is(err, ErrNoIngestShard) {
		t.Fatalf("err = %v, want ErrNoIngestShard", err)
	}
}

// TestShardedSubStatsMatchUnsharded: the router summarises single-segment
// samples gathered in the reverse of the unsharded scan's order, and
// multi-segment ones in merged candidate order. The statistics must not
// see the order: every final sub-query's count, exact sum, MeanX bits and
// histogram equal the unsharded engine's, for periodic, fixed and
// user-filtered single-segment queries (including terminal [0, tmax]
// fallbacks) and for the longer paths of the differential mix.
func TestShardedSubStatsMatchUnsharded(t *testing.T) {
	ds := testDataset(t)
	tmin, tmax := ds.Store.TimeRange()
	opts := pathhist.Options{}
	ref, err := pathhist.NewEngine(ds.G, copyStore(ds.Store), ShardOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	_, refMax := ref.QueryEngine().Index().TimeRange()
	var qs []pathhist.Query
	for i := 0; i < 40; i++ {
		e := ds.Store.Get(traj.ID((i * 53) % ds.Store.Len())).Path()[i%2]
		single := network.Path{e}
		qs = append(qs,
			pathhist.Query{Path: single, Around: tmin + int64(i)*4111, Beta: 1 + i%25},
			pathhist.Query{Path: single, From: tmin + int64(i)*7919, Beta: 5},
			pathhist.Query{Path: single, Around: 17 * 3600, WindowSeconds: 900, Beta: 20, FilterUser: true, User: traj.UserID(i % 15)},
		)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		qs = append(qs, randomQuery(rng, ds, tmin, tmax))
	}
	for _, n := range []int{2, 4} {
		c, err := Build(ds.G, copyStore(ds.Store), Config{Shards: n, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		singles := 0
		for _, q := range qs {
			spq, err := pathhist.StrictPathQuery(ds.G, q, refMax)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.QueryEngine().TripQuery(spq)
			got, err := c.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Subs) != len(want.Subs) {
				t.Fatalf("N=%d %+v: %d subs vs %d", n, q, len(got.Subs), len(want.Subs))
			}
			for i := range got.Subs {
				gs, ws := &got.Subs[i], &want.Subs[i]
				if len(gs.Path) == 1 {
					singles++
				}
				if gs.N != ws.N || gs.Sum != ws.Sum || gs.Fallback != ws.Fallback ||
					math.Float64bits(gs.MeanX()) != math.Float64bits(ws.MeanX()) || !histsEqual(gs.Hist, ws.Hist) {
					t.Fatalf("N=%d %+v sub %d: (n %d, sum %d, mean %v, fallback %v) vs unsharded (n %d, sum %d, mean %v, fallback %v)",
						n, q, i, gs.N, gs.Sum, gs.MeanX(), gs.Fallback, ws.N, ws.Sum, ws.MeanX(), ws.Fallback)
				}
			}
			if math.Float64bits(got.MeanSeconds) != math.Float64bits(want.PredictedMean()) {
				t.Fatalf("N=%d %+v: mean %v vs %v", n, q, got.MeanSeconds, want.PredictedMean())
			}
		}
		if singles == 0 {
			t.Fatal("no single-segment sub-query was compared")
		}
		c.Close()
	}
}
