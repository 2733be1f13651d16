package query

import (
	"fmt"
	"testing"

	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// paperStore builds the Section 2.2 trajectory set; dropTr2 removes the
// only trajectory traversing F (to exercise the estimateTT fallback).
func paperStore(t testing.TB, dropTr2 bool) (*network.Graph, map[string]network.EdgeID, *traj.Store) {
	t.Helper()
	g, ids := network.PaperExample()
	s := traj.NewStore()
	e := func(name string, tt int64, d int32) traj.Entry {
		return traj.Entry{Edge: ids[name], T: tt, TT: d}
	}
	s.Add(1, []traj.Entry{e("A", 0, 3), e("B", 3, 4), e("E", 7, 4)})
	s.Add(2, []traj.Entry{e("A", 2, 4), e("C", 6, 2), e("D", 8, 4), e("E", 12, 5)})
	if !dropTr2 {
		s.Add(2, []traj.Entry{e("A", 4, 3), e("B", 7, 3), e("F", 10, 6)})
	}
	s.Add(1, []traj.Entry{e("A", 6, 3), e("B", 9, 3), e("E", 12, 4)})
	return g, ids, s
}

func path(ids map[string]network.EdgeID, names ...string) network.Path {
	var p network.Path
	for _, n := range names {
		p = append(p, ids[n])
	}
	return p
}

func pathNames(ids map[string]network.EdgeID, p network.Path) string {
	rev := map[network.EdgeID]string{}
	for n, id := range ids {
		rev[id] = n
	}
	out := ""
	for _, e := range p {
		out += rev[e]
	}
	return out
}

func subPathNames(ids map[string]network.EdgeID, subs []SPQ) []string {
	var out []string
	for _, s := range subs {
		out = append(out, pathNames(ids, s.Path))
	}
	return out
}

func equalStrings(a, b []string) bool {
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

// TestPartitioningSection32 checks every example of Section 3.2 on the path
// <A,C,D,E>.
func TestPartitioningSection32(t *testing.T) {
	g, ids := network.PaperExample()
	q := SPQ{Path: path(ids, "A", "C", "D", "E"), Interval: snt.NewPeriodic(0, 900), Filter: snt.NoFilter, Beta: 2}
	cases := []struct {
		pt   Partitioner
		want []string
	}{
		{Partitioner{Kind: Regular, P: 1}, []string{"A", "C", "D", "E"}},
		{Partitioner{Kind: Regular, P: 2}, []string{"AC", "DE"}},
		{Partitioner{Kind: Regular, P: 3}, []string{"ACD", "E"}},
		{Partitioner{Kind: Category}, []string{"A", "CD", "E"}},
		{Partitioner{Kind: ZoneKind}, []string{"A", "CDE"}},
		{Partitioner{Kind: ZoneCategory}, []string{"A", "CD", "E"}},
		{Partitioner{Kind: None}, []string{"ACDE"}},
	}
	for _, c := range cases {
		got := subPathNames(ids, c.pt.Partition(g, q))
		if !equalStrings(got, c.want) {
			t.Errorf("%v: %v, want %v", c.pt, got, c.want)
		}
	}
}

func TestPartitionerNames(t *testing.T) {
	names := map[string]Partitioner{
		"pi1": {Kind: Regular, P: 1}, "pi3": {Kind: Regular, P: 3},
		"piC": {Kind: Category}, "piZ": {Kind: ZoneKind},
		"piZC": {Kind: ZoneCategory}, "piN": {Kind: None}, "piMDM": {Kind: MDM},
	}
	for want, pt := range names {
		if pt.String() != want {
			t.Errorf("%v != %s", pt, want)
		}
	}
	if SigmaR.String() != "sigmaR" || SigmaL.String() != "sigmaL" {
		t.Error("splitter names")
	}
}

func TestMDMFilterSelectivity(t *testing.T) {
	g, ids := network.PaperExample()
	q := SPQ{
		Path:     path(ids, "A", "C", "D", "E"),
		Interval: snt.NewPeriodic(0, 900),
		Filter:   snt.Filter{User: 7, ExcludeTraj: -1},
		Beta:     2,
	}
	subs := Partitioner{Kind: MDM}.Partition(g, q)
	// A (motorway) and E (primary) are main roads and keep the user
	// filter; C,D (secondary) drop it.
	if !subs[0].Filter.HasPredicate() {
		t.Error("motorway sub-query lost its user filter")
	}
	if subs[1].Filter.HasPredicate() {
		t.Error("secondary sub-query kept its user filter")
	}
	if !subs[2].Filter.HasPredicate() {
		t.Error("primary sub-query lost its user filter")
	}
	// ExcludeTraj survives the drop.
	if subs[1].Filter.ExcludeTraj != -1 {
		t.Error("ExcludeTraj mangled")
	}
}

func engine(t testing.TB, g *network.Graph, s *traj.Store, cfg Config) (*Engine, *snt.Index) {
	t.Helper()
	ix := snt.Build(g, s, snt.Options{})
	if cfg.BucketWidth == 0 {
		cfg.BucketWidth = 1
	}
	return NewEngine(ix, cfg), ix
}

// sameSamples reports whether a sub-result summarises exactly the sample
// multiset want: the same count and sum, and bucket for bucket the
// histogram hist.FromSamples builds from want (with the unit buckets these
// tests use, that histogram is the multiset itself).
func sameSamples(s *SubResult, want ...int) error {
	var sum int64
	for _, x := range want {
		sum += int64(x)
	}
	if s.N != len(want) || s.Sum != sum {
		return fmt.Errorf("samples (n %d, sum %d), want (n %d, sum %d) of %v", s.N, s.Sum, len(want), sum, want)
	}
	if s.Hist == nil {
		return fmt.Errorf("no histogram, want one of %v", want)
	}
	if err := sameHist(s.Hist, hist.FromSamples(want, s.Hist.BucketWidth())); err != nil {
		return fmt.Errorf("histogram of %v: %w", want, err)
	}
	return nil
}

func TestTripQueryPaperExample(t *testing.T) {
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B", "E"),
		Interval: snt.NewFixed(0, 15),
		Filter:   snt.Filter{User: 1, ExcludeTraj: -1},
		Beta:     2,
	})
	if len(res.Subs) != 1 {
		t.Fatalf("subs = %d", len(res.Subs))
	}
	if err := sameSamples(&res.Subs[0], 10, 11); err != nil {
		t.Fatal(err)
	}
	// H = {[10,11): 1; [11,12): 1}.
	if res.Hist.Count(10) != 1 || res.Hist.Count(11) != 1 {
		t.Errorf("histogram wrong: %v %v", res.Hist.Count(10), res.Hist.Count(11))
	}
	if res.PredictedMean() != 10.5 {
		t.Errorf("PredictedMean = %v", res.PredictedMean())
	}
	if res.IndexScans != 1 || res.EstimatorSkips != 0 {
		t.Errorf("counters: %d scans, %d skips", res.IndexScans, res.EstimatorSkips)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
}

func TestTripQuerySplitConvolution(t *testing.T) {
	// The Section 2.3 split: Q1 = spq(<A,B>, ...) and Q2 = spq(<E>, ...)
	// yield H = H1 * H2 = {[10,11):4; [11,12):4; [12,13):1}.
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: Regular, P: 2}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B", "E"),
		Interval: snt.NewFixed(0, 15),
		Filter:   snt.NoFilter,
		Beta:     3,
	})
	if len(res.Subs) != 2 {
		t.Fatalf("subs = %d", len(res.Subs))
	}
	if got := res.Hist.Count(10); got != 4 {
		t.Errorf("H[10,11) = %v, want 4", got)
	}
	if got := res.Hist.Count(11); got != 4 {
		t.Errorf("H[11,12) = %v, want 4", got)
	}
	if got := res.Hist.Count(12); got != 1 {
		t.Errorf("H[12,13) = %v, want 1", got)
	}
	if got := res.AvgSubPathLen(); got != 1.5 {
		t.Errorf("AvgSubPathLen = %v", got)
	}
}

func TestRelaxationSplitsToSegments(t *testing.T) {
	// Periodic query over <A,B,E> with β=3: only 2 trajectories traverse
	// the full path, so the engine widens through A and then splits down
	// to single segments, each satisfying β=3.
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B", "E"),
		Interval: snt.PeriodicAround(0, 15*60),
		Filter:   snt.NoFilter,
		Beta:     3,
	})
	var names []string
	for _, sub := range res.Subs {
		names = append(names, pathNames(ids, sub.Path))
		if sub.N < 3 {
			t.Errorf("sub %s has only %d samples", pathNames(ids, sub.Path), sub.N)
		}
	}
	if !equalStrings(names, []string{"A", "B", "E"}) {
		t.Fatalf("final subs = %v", names)
	}
	// The sub-paths always partition the query path in order.
	if res.AvgSubPathLen() != 1 {
		t.Errorf("AvgSubPathLen = %v", res.AvgSubPathLen())
	}
}

func TestEstimateFallbackTerminal(t *testing.T) {
	// With tr2 dropped, F has no data at all: the engine must end in the
	// terminal fixed-interval sub-query and return estimateTT(F) = 36 s.
	g, ids, s := paperStore(t, true)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B", "F"),
		Interval: snt.PeriodicAround(0, 15*60),
		Filter:   snt.NoFilter,
		Beta:     2,
	})
	last := res.Subs[len(res.Subs)-1]
	if pathNames(ids, last.Path) != "F" {
		t.Fatalf("last sub = %s", pathNames(ids, last.Path))
	}
	if !last.Fallback {
		t.Error("expected fallback flag")
	}
	if err := sameSamples(&last, 36); err != nil {
		t.Errorf("fallback: %v, want {36}", err)
	}
	// A segment with an empty ISA range falls back at the FM-index check
	// (Procedure 5 line 2-4 + the estimateTT intent), so no terminal
	// fixed-interval relaxation round is needed: the FM-index saves the
	// futile temporal scans (Section 4.1).
}

func TestTerminalFixedIntervalReached(t *testing.T) {
	// F has data (tr2 kept) but a user filter for a driver who never
	// drove it; relaxation must drop the predicate and still answer.
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "F"),
		Interval: snt.PeriodicAround(10, 15*60),
		Filter:   snt.Filter{User: 1, ExcludeTraj: -1}, // F was driven by user 2 only
		Beta:     1,
	})
	if len(res.Subs) != 1 {
		t.Fatalf("subs = %d", len(res.Subs))
	}
	sub := res.Subs[0]
	if sub.Filter.HasPredicate() {
		t.Error("user predicate should have been dropped")
	}
	if err := sameSamples(&sub, 6); err != nil || sub.Fallback {
		t.Errorf("samples: %v, fallback=%v, want tr2's 6 s traversal", err, sub.Fallback)
	}
}

func TestSigmaLvsSigmaR(t *testing.T) {
	// Splitting <A,B,F> with β=3: σL keeps the longest prefix <A,B>
	// (3 matches); σR cuts in half after <A>.
	g, ids, s := paperStore(t, false)
	for _, sp := range []Splitter{SigmaR, SigmaL} {
		e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}, Splitter: sp})
		res := e.TripQuery(SPQ{
			Path:     path(ids, "A", "B", "F"),
			Interval: snt.PeriodicAround(0, 15*60),
			Filter:   snt.NoFilter,
			Beta:     3,
		})
		var names []string
		for _, sub := range res.Subs {
			names = append(names, pathNames(ids, sub.Path))
		}
		if sp == SigmaL {
			if names[0] != "AB" {
				t.Errorf("sigmaL first sub = %v", names)
			}
		} else {
			if names[0] != "A" {
				t.Errorf("sigmaR first sub = %v", names)
			}
		}
		// F always ends as its own sub-query (only 1 trajectory).
		if names[len(names)-1] != "F" {
			t.Errorf("%v: last sub = %v", sp, names)
		}
	}
}

func TestShiftAndEnlarge(t *testing.T) {
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: Regular, P: 1}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B"),
		Interval: snt.PeriodicAround(0, 15*60),
		Filter:   snt.NoFilter,
		Beta:     2,
	})
	if len(res.Subs) != 2 {
		t.Fatalf("subs = %d", len(res.Subs))
	}
	first, second := res.Subs[0], res.Subs[1]
	// The second interval starts Σ H^min later and is Σ (H^max - H^min)
	// wider than the base interval.
	wantShift := int64(first.Hist.Min())
	wantGrow := int64(first.Hist.Max() - first.Hist.Min())
	base := snt.PeriodicAround(0, 15*60)
	if second.Interval.TodStart != snt.NewPeriodic(base.TodStart+wantShift, base.Width).TodStart {
		t.Errorf("second TodStart = %d, want base+%d", second.Interval.TodStart, wantShift)
	}
	if second.Interval.Width != base.Width+wantGrow {
		t.Errorf("second width = %d, want %d", second.Interval.Width, base.Width+wantGrow)
	}
}

func TestEstimatorSkipsScans(t *testing.T) {
	g, ids, s := paperStore(t, true) // F has no data
	ix := snt.Build(g, s, snt.Options{})
	plain := NewEngine(ix, Config{Partitioner: Partitioner{Kind: None}, BucketWidth: 1})
	est := NewEngine(ix, Config{
		Partitioner: Partitioner{Kind: None},
		BucketWidth: 1,
		Estimator:   card.New(ix, card.ISA),
	})
	q := SPQ{
		Path:     path(ids, "A", "B", "F"),
		Interval: snt.PeriodicAround(0, 15*60),
		Filter:   snt.NoFilter,
		Beta:     2,
	}
	rp := plain.TripQuery(q)
	re := est.TripQuery(q)
	if re.EstimatorSkips == 0 {
		t.Error("ISA estimator should skip zero-count sub-queries")
	}
	if re.IndexScans >= rp.IndexScans {
		t.Errorf("estimator should reduce scans: %d vs %d", re.IndexScans, rp.IndexScans)
	}
	// Same final answer.
	if rp.PredictedMean() != re.PredictedMean() {
		t.Errorf("estimator changed the result: %v vs %v", rp.PredictedMean(), re.PredictedMean())
	}
}

func TestFixedIntervalQueryAcceptsUnderBeta(t *testing.T) {
	// SPQ-only queries accept non-empty result sets below β without
	// splitting (Section 4.2 / Figure 7c).
	g, ids, s := paperStore(t, false)
	e, _ := engine(t, g, s, Config{Partitioner: Partitioner{Kind: None}})
	res := e.TripQuery(SPQ{
		Path:     path(ids, "A", "B", "E"),
		Interval: snt.NewFixed(0, 20),
		Filter:   snt.NoFilter,
		Beta:     50,
	})
	if len(res.Subs) != 1 {
		t.Fatalf("fixed under-beta: %d subs", len(res.Subs))
	}
	// tr1 and tr4 drive A,B,E in [0, 20): 3+4+4 and 3+3+4 seconds.
	if err := sameSamples(&res.Subs[0], 10, 11); err != nil {
		t.Fatalf("fixed under-beta: %v", err)
	}
}

func TestSubPathsPartitionQueryPath(t *testing.T) {
	// Invariant: final sub-paths concatenate to the query path for every
	// partitioner and splitter combination.
	g, ids, s := paperStore(t, false)
	full := path(ids, "A", "C", "D", "E")
	for _, pk := range []Partitioner{
		{Kind: Regular, P: 1}, {Kind: Regular, P: 2}, {Kind: Regular, P: 3},
		{Kind: Category}, {Kind: ZoneKind}, {Kind: ZoneCategory}, {Kind: None}, {Kind: MDM},
	} {
		for _, sp := range []Splitter{SigmaR, SigmaL} {
			e, _ := engine(t, g, s, Config{Partitioner: pk, Splitter: sp})
			res := e.TripQuery(SPQ{
				Path:     full,
				Interval: snt.PeriodicAround(2, 15*60),
				Filter:   snt.NoFilter,
				Beta:     4,
			})
			var concat network.Path
			for _, sub := range res.Subs {
				concat = append(concat, sub.Path...)
			}
			if len(concat) != len(full) {
				t.Fatalf("%v/%v: concat %d segs, want %d", pk, sp, len(concat), len(full))
			}
			for i := range full {
				if concat[i] != full[i] {
					t.Fatalf("%v/%v: sub-paths do not partition the query path", pk, sp)
				}
			}
			if res.Hist == nil || res.Hist.Total() == 0 {
				t.Fatalf("%v/%v: empty final histogram", pk, sp)
			}
		}
	}
}

func TestZoneBetas(t *testing.T) {
	// Rural zone (segment A) gets a lax requirement of 1 while city
	// segments keep β=4: the rural sub-query stays whole at β=1 (4
	// matches needed otherwise would also pass... so invert: rural gets
	// β=1 and city gets an unreachable β; zone-specific values must be
	// observable in the amount of splitting).
	g, ids, s := paperStore(t, false)
	ix := snt.Build(g, s, snt.Options{})
	base := SPQ{
		Path:     path(ids, "A", "C", "D", "E"),
		Interval: snt.PeriodicAround(2, 15*60),
		Filter:   snt.NoFilter,
		Beta:     3,
	}
	// Without zone overrides: <C,D> has only one strict traversal (tr1),
	// so πZC splits it down to <C>, <D> each with a single sample after
	// predicate relaxation.
	plain := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneCategory}, BucketWidth: 1})
	rp := plain.TripQuery(base)
	// With a relaxed city requirement of 1, <C,D> succeeds directly.
	zoned := NewEngine(ix, Config{
		Partitioner: Partitioner{Kind: ZoneCategory},
		BucketWidth: 1,
		ZoneBetas: map[network.Zone]int{
			network.ZoneCity: 1,
		},
	})
	rz := zoned.TripQuery(base)
	if len(rz.Subs) >= len(rp.Subs) {
		t.Fatalf("zone β=1 should reduce splitting: %d vs %d subs", len(rz.Subs), len(rp.Subs))
	}
	var names []string
	for _, sub := range rz.Subs {
		names = append(names, pathNames(ids, sub.Path))
	}
	if !equalStrings(names, []string{"A", "CD", "E"}) {
		t.Fatalf("zoned subs = %v", names)
	}
}

func TestDisableShiftEnlarge(t *testing.T) {
	g, ids, s := paperStore(t, false)
	ix := snt.Build(g, s, snt.Options{})
	mk := func(disable bool) Result {
		eng := NewEngine(ix, Config{
			Partitioner:         Partitioner{Kind: Regular, P: 1},
			BucketWidth:         1,
			DisableShiftEnlarge: disable,
		})
		return eng.TripQuery(SPQ{
			Path:     path(ids, "A", "B"),
			Interval: snt.PeriodicAround(0, 15*60),
			Filter:   snt.NoFilter,
			Beta:     2,
		})
	}
	withShift := mk(false)
	without := mk(true)
	baseIv := snt.PeriodicAround(0, 15*60)
	if without.Subs[1].Interval != baseIv {
		t.Errorf("disabled shift still adapted the interval: %+v", without.Subs[1].Interval)
	}
	if withShift.Subs[1].Interval == baseIv {
		t.Errorf("enabled shift did not adapt the interval")
	}
}

// TestAttemptScanAllocs pins what one engine attempt at a periodic rung
// that scans successfully allocates, with the cache on and the full-result
// cache off: the histogram built from the scan (OutcomeOf) and nothing
// else. The scan itself runs on the held scratch (snt's
// TestScanAllocations), and no attempt memoises a periodic rung, so the
// same attempt repeated scans again instead of answering from a store.
func TestAttemptScanAllocs(t *testing.T) {
	ix, qs := parEnv(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10,
		DisableFullResultCache: true})
	sn := eng.snap.Load()
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	var q SPQ
	for _, c := range qs {
		c.Beta = 2 // windows holding 20 records are rare at αmin
		if o := eng.attempt(sn, c, sc); c.Interval.IsPeriodic() && o.N > 0 {
			q = c
			break
		}
	}
	if q.Path == nil {
		t.Fatal("no periodic query scans successfully")
	}
	var o Outcome
	allocs := testing.AllocsPerRun(50, func() { o = eng.attempt(sn, q, sc) })
	if o.N == 0 || o.Cached || o.Skipped {
		t.Fatalf("attempt outcome %+v, want a successful scan", o)
	}
	// A histogram from FromSamples: its struct and its count buffer.
	if allocs != 2 {
		t.Fatalf("attempt allocated %v times per run, want 2", allocs)
	}
}
