package snt

import (
	"math/rand"
	"sort"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// buildPaperIndex indexes the Section 2.2 trajectory set.
func buildPaperIndex(t testing.TB, opts Options) (*Index, map[string]network.EdgeID) {
	t.Helper()
	g, ids := network.PaperExample()
	s := traj.NewStore()
	e := func(name string, tt int64, d int32) traj.Entry {
		return traj.Entry{Edge: ids[name], T: tt, TT: d}
	}
	s.Add(1, []traj.Entry{e("A", 0, 3), e("B", 3, 4), e("E", 7, 4)})
	s.Add(2, []traj.Entry{e("A", 2, 4), e("C", 6, 2), e("D", 8, 4), e("E", 12, 5)})
	s.Add(2, []traj.Entry{e("A", 4, 3), e("B", 7, 3), e("F", 10, 6)})
	s.Add(1, []traj.Entry{e("A", 6, 3), e("B", 9, 3), e("E", 12, 4)})
	return Build(g, s, opts), ids
}

func path(ids map[string]network.EdgeID, names ...string) network.Path {
	var p network.Path
	for _, n := range names {
		p = append(p, ids[n])
	}
	return p
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

func TestPaperSection23Query(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	// Q = spq(<A,B,E>, [0,15), u=u1, 2) returns {tr0, tr3} with durations
	// {11, 10}.
	xs, fb := ix.GetTravelTimes(path(ids, "A", "B", "E"), NewFixed(0, 15), Filter{User: 1, ExcludeTraj: -1}, 2)
	if fb {
		t.Fatal("unexpected fallback")
	}
	if !equalInts(sortedCopy(xs), []int{10, 11}) {
		t.Fatalf("X = %v, want {10, 11}", xs)
	}
	// Q1 = spq(<A,B>, [0,15), ∅, 3) yields H1 = {[6,7):2; [7,8):1}.
	xs, _ = ix.GetTravelTimes(path(ids, "A", "B"), NewFixed(0, 15), NoFilter, 3)
	if !equalInts(sortedCopy(xs), []int{6, 6, 7}) {
		t.Fatalf("X(A,B) = %v, want {6,6,7}", xs)
	}
	// Q2 = spq(<E>, [0,15), ∅, 3) yields H2 = {[4,5):2; [5,6):1}.
	xs, _ = ix.GetTravelTimes(path(ids, "E"), NewFixed(0, 15), NoFilter, 3)
	if !equalInts(sortedCopy(xs), []int{4, 4, 5}) {
		t.Fatalf("X(E) = %v, want {4,4,5}", xs)
	}
}

func TestPaperISARange(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	r := ix.ISARanges(path(ids, "A"))
	if len(r) != 1 || r[0].St != 4 || r[0].Ed != 8 {
		t.Errorf("R(<A>) = %+v, want [4,8)", r)
	}
	r = ix.ISARanges(path(ids, "A", "B"))
	if r[0].St != 4 || r[0].Ed != 7 {
		t.Errorf("R(<A,B>) = %+v, want [4,7)", r)
	}
	if c := ix.PathCount(path(ids, "A", "B", "E")); c != 2 {
		t.Errorf("c_P(<A,B,E>) = %d", c)
	}
}

func TestStrictness(t *testing.T) {
	// <A,E> is not traversed contiguously by anyone (tr0 goes A,B,E).
	ix, ids := buildPaperIndex(t, Options{})
	xs, fb := ix.GetTravelTimes(path(ids, "A", "E"), NewFixed(0, 100), NoFilter, 0)
	if len(xs) != 0 || fb {
		t.Fatalf("non-contiguous path returned %v", xs)
	}
}

func TestUserFilter(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	xs, _ := ix.GetTravelTimes(path(ids, "A", "B"), NewFixed(0, 15), Filter{User: 2, ExcludeTraj: -1}, 0)
	if !equalInts(sortedCopy(xs), []int{6}) { // only tr2
		t.Fatalf("user-2 X = %v", xs)
	}
}

func TestExcludeTraj(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	xs, _ := ix.GetTravelTimes(path(ids, "A", "B", "E"), NewFixed(0, 15), Filter{User: traj.NoUser, ExcludeTraj: 0}, 0)
	if !equalInts(sortedCopy(xs), []int{10}) { // tr0 excluded, tr3 stays
		t.Fatalf("excluded X = %v", xs)
	}
}

func TestTemporalPredicate(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	// Only trajectories entering A in [0, 3): tr0 (t=0) and tr1 (t=2).
	xs, _ := ix.GetTravelTimes(path(ids, "A"), NewFixed(0, 3), NoFilter, 0)
	if !equalInts(sortedCopy(xs), []int{3, 4}) {
		t.Fatalf("X = %v, want {3,4}", xs)
	}
}

func TestBetaEarlyExit(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	xs, _ := ix.GetTravelTimes(path(ids, "A"), NewFixed(0, 100), NoFilter, 2)
	if len(xs) != 2 {
		t.Fatalf("beta=2 returned %d results", len(xs))
	}
}

func TestPeriodicRequiresBeta(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	// All four trajectories traverse A within seconds of midnight; a
	// periodic window around that time matches all of them.
	iv := PeriodicAround(0, 900)
	xs, _ := ix.GetTravelTimes(path(ids, "A"), iv, NoFilter, 4)
	if len(xs) != 4 {
		t.Fatalf("periodic X = %v", xs)
	}
	// Requiring more matches than exist must return nil (Procedure 5
	// line 7), triggering relaxation upstream.
	xs, fb := ix.GetTravelTimes(path(ids, "A"), iv, NoFilter, 5)
	if xs != nil || fb {
		t.Fatalf("periodic under-beta should be nil, got %v", xs)
	}
	// A fixed interval accepts fewer than beta matches.
	xs, _ = ix.GetTravelTimes(path(ids, "A"), NewFixed(0, 100), NoFilter, 5)
	if len(xs) != 4 {
		t.Fatalf("fixed under-beta X = %v", xs)
	}
}

func TestEstimateFallback(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	g := ix.Graph()
	// A segment no trajectory ever traversed: add a fresh edge... the
	// graph is shared, so instead query a segment with data but an
	// interval with none — a multi-segment path returns nil, a single
	// segment <F> outside its data window still has data in [0,tmax),
	// so craft the no-data case via user filter on fixed interval:
	xs, fb := ix.GetTravelTimes(path(ids, "F"), NewFixed(0, 5), NoFilter, 0)
	if fb || len(xs) != 0 {
		// F is entered at t=10 only; [0,5) has no match, path len 1 ->
		// estimate fallback fires.
		if !fb {
			t.Fatalf("expected fallback, got %v", xs)
		}
		if len(xs) != 1 || xs[0] != g.EstimateTTSeconds(ids["F"]) {
			t.Fatalf("fallback X = %v", xs)
		}
	} else {
		t.Fatal("expected fallback or empty")
	}
	// Multi-segment path with no matching interval: nil, no fallback.
	xs, fb = ix.GetTravelTimes(path(ids, "A", "B"), NewFixed(100, 200), NoFilter, 0)
	if len(xs) != 0 || fb {
		t.Fatalf("multi-segment empty interval: %v fb=%v", xs, fb)
	}
}

func TestCountMatches(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	if c := ix.CountMatches(path(ids, "A", "B"), NewFixed(0, 15), NoFilter, 0); c != 3 {
		t.Errorf("CountMatches(<A,B>) = %d, want 3", c)
	}
	if c := ix.CountMatches(path(ids, "A", "B"), NewFixed(0, 15), NoFilter, 2); c != 2 {
		t.Errorf("limited CountMatches = %d, want 2", c)
	}
	if c := ix.CountMatches(path(ids, "A", "E"), NewFixed(0, 15), NoFilter, 0); c != 0 {
		t.Errorf("CountMatches(<A,E>) = %d, want 0", c)
	}
	if c := ix.CountMatches(nil, NewFixed(0, 15), NoFilter, 0); c != 0 {
		t.Errorf("CountMatches(empty) = %d", c)
	}
}

func TestScanOrderOptions(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	xs, _ := ix.GetTravelTimes(path(ids, "A"), NewFixed(0, 100), NoFilter, 0)
	if !equalInts(sortedCopy(xs), []int{3, 3, 3, 4}) {
		t.Fatalf("X = %v", xs)
	}
	// With beta=1 the newest-first scan picks the newest record.
	xs, _ = ix.GetTravelTimes(path(ids, "A"), NewFixed(0, 100), NoFilter, 1)
	if len(xs) != 1 {
		t.Fatalf("beta=1 X = %v", xs)
	}
	if xs[0] != 3 { // tr3's A traversal takes 3
		t.Errorf("newest-first picked %d", xs[0])
	}
}

// synthStore builds a deterministic multi-day store on the paper network
// for partitioning tests.
func synthStore(t testing.TB, days int, perDay int) (*network.Graph, map[string]network.EdgeID, *traj.Store) {
	t.Helper()
	g, ids := network.PaperExample()
	rng := rand.New(rand.NewSource(77))
	s := traj.NewStore()
	routes := [][]string{{"A", "B", "E"}, {"A", "C", "D", "E"}, {"A", "B", "F"}}
	for d := 0; d < days; d++ {
		for k := 0; k < perDay; k++ {
			route := routes[rng.Intn(len(routes))]
			t0 := int64(d)*DaySeconds + int64(6*3600+rng.Intn(12*3600))
			var seq []traj.Entry
			tcur := t0
			for _, name := range route {
				tt := int32(3 + rng.Intn(10))
				seq = append(seq, traj.Entry{Edge: ids[name], T: tcur, TT: tt})
				tcur += int64(tt)
			}
			s.Add(traj.UserID(rng.Intn(5)), seq)
		}
	}
	return g, ids, s
}

func TestPartitionedEquivalence(t *testing.T) {
	g, ids, s1 := synthStore(t, 30, 20)
	full := Build(g, s1, Options{})
	_, _, s2 := synthStore(t, 30, 20)
	weekly := Build(g, s2, Options{PartitionDays: 7})
	if weekly.NumPartitions() < 4 {
		t.Fatalf("expected >=4 partitions, got %d", weekly.NumPartitions())
	}
	paths := []network.Path{
		path(ids, "A"), path(ids, "A", "B"), path(ids, "A", "B", "E"),
		path(ids, "A", "C", "D", "E"), path(ids, "B", "E"), path(ids, "C", "D"),
	}
	intervals := []Interval{
		NewFixed(0, 40*DaySeconds),
		NewFixed(5*DaySeconds, 12*DaySeconds),
		PeriodicAround(10*3600, 3600),
		NewPeriodic(23*3600, 7200),
	}
	for _, p := range paths {
		for _, iv := range intervals {
			a, _ := full.GetTravelTimes(p, iv, NoFilter, 0)
			b, _ := weekly.GetTravelTimes(p, iv, NoFilter, 0)
			if !equalInts(sortedCopy(a), sortedCopy(b)) {
				t.Fatalf("partitioned index disagrees on %v %v: %d vs %d results",
					p, iv, len(a), len(b))
			}
		}
	}
}

func TestGroundTruthAgainstDur(t *testing.T) {
	// Every travel time the index returns must equal Dur(tr, P) of some
	// trajectory matching the predicates — and all matching trajectories
	// must be returned when beta is unlimited.
	g, ids, s := synthStore(t, 10, 30)
	ix := Build(g, s, Options{PartitionDays: 3})
	paths := []network.Path{
		path(ids, "A", "B"), path(ids, "A", "B", "E"), path(ids, "C", "D", "E"),
	}
	iv := NewFixed(2*DaySeconds, 8*DaySeconds)
	for _, p := range paths {
		xs, fb := ix.GetTravelTimes(p, iv, NoFilter, 0)
		if fb {
			t.Fatal("unexpected fallback")
		}
		var want []int
		for i := 0; i < s.Len(); i++ {
			tr := s.Get(traj.ID(i))
			// Strict match with entry time of the first matched segment
			// in the interval.
			tp := tr.Path()
		occ:
			for off := 0; off+len(p) <= len(tp); off++ {
				for j := range p {
					if tp[off+j] != p[j] {
						continue occ
					}
				}
				if ts := tr.Seq[off].T; ts >= iv.Start && ts < iv.End {
					var sum int
					for j := range p {
						sum += int(tr.Seq[off+j].TT)
					}
					want = append(want, sum)
				}
			}
		}
		if !equalInts(sortedCopy(xs), sortedCopy(want)) {
			t.Fatalf("path %v: index %v vs ground truth %v", p, sortedCopy(xs), sortedCopy(want))
		}
	}
}

// TestPartLookupFollowsTrajectory: a record's partition is its
// trajectory's, through a lookup that is nil while the index has one
// partition, is materialised by the first Extend without touching the
// source snapshot, follows every partition-count change, and costs exactly
// one id per trajectory in the memory model.
func TestPartLookupFollowsTrajectory(t *testing.T) {
	g, _, s := synthStore(t, 20, 15)
	s.SortByStart()
	n := s.Len()
	check := func(ix *Index, label string) {
		t.Helper()
		if ix.NumPartitions() == 1 {
			if ix.part != nil {
				t.Fatalf("%s: one partition but a lookup of %d trajectories", label, len(ix.part))
			}
			return
		}
		if len(ix.part) != len(ix.users) {
			t.Fatalf("%s: lookup covers %d of %d trajectories", label, len(ix.part), len(ix.users))
		}
		for d := range ix.part {
			if w := oraclePart(ix, traj.ID(d)); int(ix.part[d]) != w {
				t.Fatalf("%s: trajectory %d in partition %d, its id range says %d", label, d, ix.part[d], w)
			}
		}
	}

	ix := Build(g, sliceStore(s, 0, n/2), Options{})
	check(ix, "build")
	before := ix.Memory().ForestBytes
	ext, err := ix.Extend(sliceStore(s, n/2, 3*n/4))
	if err != nil {
		t.Fatal(err)
	}
	check(ext, "first extend")
	if ix.part != nil {
		t.Fatal("Extend materialised the lookup on the source snapshot")
	}
	growth := ext.Memory().ForestBytes - ext.frozen.SizeBytes() - (before - ix.frozen.SizeBytes())
	if growth != 4*len(ext.users) {
		t.Fatalf("lookup counted as %d B, want 4 B x %d trajectories", growth, len(ext.users))
	}
	ext2, err := ext.Extend(sliceStore(s, 3*n/4, n))
	if err != nil {
		t.Fatal(err)
	}
	check(ext2, "second extend")
	full, _, err := ext2.Compact(CompactionPolicy{TriggerPartitions: -1})
	if err != nil {
		t.Fatal(err)
	}
	check(full, "full compaction")

	_, _, s2 := synthStore(t, 20, 15)
	weekly := Build(g, s2, Options{PartitionDays: 7})
	check(weekly, "PartitionDays build")
	partial, _, err := weekly.Compact(CompactionPolicy{TriggerPartitions: -1, MaxMergedRecords: weekly.stats.Records * 3 / 4})
	if err != nil {
		t.Fatal(err)
	}
	if partial.NumPartitions() < 2 || partial.NumPartitions() >= weekly.NumPartitions() {
		t.Fatalf("partial compaction: %d -> %d partitions", weekly.NumPartitions(), partial.NumPartitions())
	}
	check(partial, "partial compaction")
}

func TestMemoryModel(t *testing.T) {
	g, _, s := synthStore(t, 60, 10)
	full := Build(g, s, Options{})
	_, _, s2 := synthStore(t, 60, 10)
	weekly := Build(g, s2, Options{PartitionDays: 7})
	mf, mw := full.Memory(), weekly.Memory()
	if mw.CBytes <= mf.CBytes {
		t.Errorf("C should grow with partitions: %d vs %d", mw.CBytes, mf.CBytes)
	}
	if mw.CBytes != weekly.NumPartitions()*mf.CBytes {
		t.Errorf("C should grow linearly: %d vs %d x %d", mw.CBytes, weekly.NumPartitions(), mf.CBytes)
	}
	if mw.WTBytes <= mf.WTBytes {
		t.Errorf("WT overhead should grow with partitions: %d vs %d", mw.WTBytes, mf.WTBytes)
	}
	if mf.UserBytes != mw.UserBytes {
		t.Error("user container unaffected by partitioning")
	}
	if mw.ForestBytes <= mf.ForestBytes {
		t.Errorf("partition lookup should cost memory: %d vs %d", mw.ForestBytes, mf.ForestBytes)
	}
	todBytes := func(ix *Index) int {
		n := 0
		for _, per := range ix.TodHistograms(600) {
			for _, h := range per {
				if h != nil {
					n += h.SizeBytes()
				}
			}
		}
		return n
	}
	if tw, tf := todBytes(weekly), todBytes(full); tw <= tf {
		t.Errorf("per-partition ToD histograms should cost more: %d vs %d", tw, tf)
	}
	if mf.Total() <= 0 {
		t.Error("total")
	}
	if full.Stats().SetupTime <= 0 || full.Stats().Records != s.NumTraversals() {
		t.Errorf("stats = %+v", full.Stats())
	}
	if full.String() == "" {
		t.Error("String")
	}
}

func TestUserAccessor(t *testing.T) {
	ix, _ := buildPaperIndex(t, Options{})
	if ix.User(0) != 1 || ix.User(1) != 2 {
		t.Errorf("User mapping wrong: %d %d", ix.User(0), ix.User(1))
	}
	tmin, tmax := ix.TimeRange()
	if tmin != 0 || tmax != 17 {
		t.Errorf("TimeRange = %d %d", tmin, tmax)
	}
}
