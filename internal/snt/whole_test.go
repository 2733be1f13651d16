package snt_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

const wholeWidth = 10

// wholeDataset is SmallConfig's dataset, or a reduced one for the -race
// concurrency test, cut at quiescent points into a base store and batches
// that Extend accepts in order.
func wholeDataset(t testing.TB, small bool, batches int) (*network.Graph, *traj.Store, []*traj.Store) {
	t.Helper()
	cfg := workload.SmallConfig()
	if small {
		cfg.Net.Cities, cfg.Net.GridSize = 3, 5
		cfg.Drivers, cfg.Days, cfg.TargetTrips = 15, 30, 500
	}
	ds := workload.BuildDataset(cfg)
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) < batches+1 {
		t.Fatalf("%d quiescent cuts, need %d", len(cuts), batches+1)
	}
	// Take cuts from the back half so the base holds most of the data.
	pick := make([]int, 0, batches+1)
	for i := 0; i <= batches; i++ {
		pick = append(pick, cuts[len(cuts)/2+i*(len(cuts)/2-1)/(batches+1)])
	}
	base := ds.Store.Slice(0, pick[0])
	var rest []*traj.Store
	for i := 0; i < batches; i++ {
		hi := ds.Store.Len()
		if i+1 < batches {
			hi = pick[i+1]
		}
		rest = append(rest, ds.Store.Slice(pick[i], hi))
	}
	return ds.G, base, rest
}

// terminal is Procedure 1's last rung over ix: the whole indexed range, no
// β, the predicate dropped.
func terminal(ix *snt.Index) (snt.Interval, snt.Filter) {
	_, tmax := ix.TimeRange()
	return snt.NewFixed(0, tmax+1), snt.Filter{User: 3, ExcludeTraj: -1}.DropPredicates()
}

// scanOutcome is the answer the memo stands in for: the scan's samples
// summarised.
func scanOutcome(ix *snt.Index, e network.EdgeID, width int) query.Outcome {
	iv, f := terminal(ix)
	xs, fallback := ix.GetTravelTimes(network.Path{e}, iv, f, 0)
	return query.OutcomeOf(xs, width, fallback)
}

// sameHist compares two histograms field for field and bucket for bucket.
func sameHist(a, b *hist.Histogram) bool {
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

// checkWhole asks every segment's terminal question twice and checks both
// answers against the scan. wantFilled says what the first ask must report
// per segment (nil: a fill everywhere). It returns the memo's histogram
// per segment with data.
func checkWhole(t *testing.T, ix *snt.Index, label string, wantFilled func(network.EdgeID) bool) map[network.EdgeID]*hist.Histogram {
	t.Helper()
	iv, f := terminal(ix)
	memo := map[network.EdgeID]*hist.Histogram{}
	for e := network.EdgeID(0); int(e) < ix.Graph().NumEdges(); e++ {
		p := network.Path{e}
		want := scanOutcome(ix, e, wholeWidth)
		n, sum, h, filled, ok := ix.WholeSegment(p, iv, f, 0, wholeWidth)
		if ix.Frozen().Get(e) == nil {
			if ok || !want.Fallback {
				t.Fatalf("%s: segment %d without data: ok %v, scan fallback %v", label, e, ok, want.Fallback)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: segment %d: terminal question not answered", label, e)
		}
		if wantFilled != nil && filled != wantFilled(e) {
			t.Fatalf("%s: segment %d: filled %v, want %v", label, e, filled, wantFilled(e))
		}
		if n != want.N || sum != want.Sum || want.Fallback || !sameHist(h, want.Hist) {
			t.Fatalf("%s: segment %d: memo (n %d, sum %d) vs scan (n %d, sum %d, fallback %v)",
				label, e, n, sum, want.N, want.Sum, want.Fallback)
		}
		n2, sum2, h2, filled2, ok2 := ix.WholeSegment(p, iv, f, 0, wholeWidth)
		if !ok2 || filled2 || n2 != n || sum2 != sum || !sameHist(h2, h) {
			t.Fatalf("%s: segment %d: second ask (ok %v, filled %v) differs from the first", label, e, ok2, filled2)
		}
		memo[e] = h2
	}
	return memo
}

// TestWholeSegmentMatchesScan pins the terminal-fallback memo to the scan
// it replaces, bucket for bucket, over every segment of SmallConfig's
// dataset: on a fresh build; after Extend, where segments the batch
// touched are filled again and untouched ones keep their histogram
// (pointer-equal); after Compact, which keeps every slot; and on a mapped
// load, which starts empty. Every other question shape is refused.
func TestWholeSegmentMatchesScan(t *testing.T) {
	g, base, batches := wholeDataset(t, false, 1)
	ix := snt.Build(g, base, snt.Options{PartitionDays: 15})
	before := checkWhole(t, ix, "build", nil)
	if len(before) == 0 {
		t.Fatal("no segment with data")
	}

	ext, err := ix.Extend(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	touched := func(e network.EdgeID) bool { return ext.Frozen().Get(e) != ix.Frozen().Get(e) }
	afterExt := checkWhole(t, ext, "extend", touched)
	kept, refilled := 0, 0
	for e, h := range afterExt {
		if touched(e) {
			refilled++
			continue
		}
		kept++
		if h != before[e] {
			t.Fatalf("extend: untouched segment %d: histogram not carried over", e)
		}
	}
	if kept == 0 || refilled == 0 {
		t.Fatalf("extend: %d segments kept, %d refilled; the batch should do both", kept, refilled)
	}

	cmp, stats, err := ext.Compact(snt.CompactionPolicy{TriggerPartitions: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs == 0 {
		t.Fatalf("compaction merged nothing: %+v", stats)
	}
	afterCmp := checkWhole(t, cmp, "compact", func(network.EdgeID) bool { return false })
	for e, h := range afterCmp {
		if h != afterExt[e] {
			t.Fatalf("compact: segment %d: histogram not carried over", e)
		}
	}

	var buf bytes.Buffer
	if _, err := cmp.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	mapped, _, err := snt.ReadSnapshotMapped(g, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkWhole(t, mapped, "mapped load", func(network.EdgeID) bool { return true })

	// A different bucket width is answered but not stored.
	iv, f := terminal(cmp)
	for e := range afterCmp {
		p := network.Path{e}
		n, sum, h, filled, ok := cmp.WholeSegment(p, iv, f, 0, 2*wholeWidth)
		want := scanOutcome(cmp, e, 2*wholeWidth)
		if !ok || !filled || n != want.N || sum != want.Sum || !sameHist(h, want.Hist) {
			t.Fatalf("width %d: segment %d: (ok %v, filled %v, n %d) vs scan n %d", 2*wholeWidth, e, ok, filled, n, want.N)
		}
		if _, _, h, filled, _ := cmp.WholeSegment(p, iv, f, 0, wholeWidth); filled || h != afterCmp[e] {
			t.Fatalf("width %d: segment %d: the stored width-%d answer was replaced", 2*wholeWidth, e, wholeWidth)
		}
		break
	}

	// Every other question shape takes the scan path.
	var seg, other network.EdgeID = -1, -1
	for e := range afterCmp {
		if seg < 0 {
			seg = e
		} else if other < 0 {
			other = e
		}
	}
	fx := cmp.Frozen().Get(seg)
	var empty network.EdgeID = -1
	for e := network.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if cmp.Frozen().Get(e) == nil {
			empty = e
			break
		}
	}
	type shape struct {
		name string
		p    network.Path
		iv   snt.Interval
		f    snt.Filter
		beta int
	}
	shapes := []shape{
		{"two segments", network.Path{seg, other}, iv, f, 0},
		{"empty path", nil, iv, f, 0},
		{"beta", network.Path{seg}, iv, f, 1},
		{"periodic", network.Path{seg}, snt.PeriodicAround(fx.MinKey(), 3600), f, 0},
		{"periodic whole day", network.Path{seg}, snt.NewPeriodic(0, snt.DaySeconds), f, 0},
		{"fixed missing the first record", network.Path{seg}, snt.NewFixed(fx.MinKey()+1, iv.End), f, 0},
		{"fixed missing the last record", network.Path{seg}, snt.NewFixed(iv.Start, fx.MaxKey()), f, 0},
		{"user predicate", network.Path{seg}, iv, snt.Filter{User: 3, ExcludeTraj: -1}, 0},
		{"excluded trajectory", network.Path{seg}, iv, snt.Filter{User: traj.NoUser, ExcludeTraj: 0}, 0},
		{"edge out of range", network.Path{network.EdgeID(g.NumEdges())}, iv, f, 0},
	}
	if empty >= 0 {
		shapes = append(shapes, shape{"segment without data", network.Path{empty}, iv, f, 0})
	}
	for _, s := range shapes {
		if _, _, _, _, ok := cmp.WholeSegment(s.p, s.iv, s.f, s.beta, wholeWidth); ok {
			t.Fatalf("%s: answered from the memo", s.name)
		}
	}
}

// TestWholeSegmentConcurrentFill races first fills of the same slots
// against Extend publishing successors (run it under -race). For each batch,
// four readers sweep every segment twice, each from its own offset, always
// asking the newest published snapshot, while the batch is extended and
// published; every answer must equal that snapshot's scan.
func TestWholeSegmentConcurrentFill(t *testing.T) {
	g, base, batches := wholeDataset(t, true, 3)
	ix := snt.Build(g, base, snt.Options{})
	var cur atomic.Pointer[snt.Index]
	cur.Store(ix)
	var segs []network.EdgeID
	for e := network.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if ix.Frozen().Get(e) != nil {
			segs = append(segs, e)
		}
	}
	const readers = 4
	for _, b := range batches {
		// One slot per reader: each sends at most one mismatch and stops.
		errs := make(chan network.EdgeID, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := r * len(segs) / readers; k < r*len(segs)/readers+2*len(segs); k++ {
					ix := cur.Load()
					e := segs[k%len(segs)]
					iv, f := terminal(ix)
					n, sum, h, _, ok := ix.WholeSegment(network.Path{e}, iv, f, 0, wholeWidth)
					want := scanOutcome(ix, e, wholeWidth)
					if !ok || n != want.N || sum != want.Sum || !sameHist(h, want.Hist) {
						errs <- e
						return
					}
				}
			}(r)
		}
		next, err := cur.Load().Extend(b)
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(next)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("segment %d: memo answer differs from the scan", e)
		}
	}
}
