package pathhist

import (
	"math"
	"testing"
)

// exampleEngine builds an engine over the paper's running example.
func exampleEngine(t testing.TB, opts Options) (*Engine, map[string]EdgeID) {
	t.Helper()
	g, ids := PaperExampleNetwork()
	s := NewStore()
	e := func(name string, at int64, tt int32) Entry {
		return Entry{Edge: ids[name], T: at, TT: tt}
	}
	s.Add(1, []Entry{e("A", 0, 3), e("B", 3, 4), e("E", 7, 4)})
	s.Add(2, []Entry{e("A", 2, 4), e("C", 6, 2), e("D", 8, 4), e("E", 12, 5)})
	s.Add(2, []Entry{e("A", 4, 3), e("B", 7, 3), e("F", 10, 6)})
	s.Add(1, []Entry{e("A", 6, 3), e("B", 9, 3), e("E", 12, 4)})
	eng, err := NewEngine(g, s, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng, ids
}

func TestEngineErrors(t *testing.T) {
	g, _ := PaperExampleNetwork()
	if _, err := NewEngine(nil, NewStore(), Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewEngine(g, NewStore(), Options{}); err == nil {
		t.Error("empty store accepted")
	}
	eng, ids := exampleEngine(t, Options{})
	if _, err := eng.Query(Query{}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := eng.Query(Query{Path: Path{ids["A"], ids["D"]}}); err == nil {
		t.Error("non-traversable path accepted")
	}
	if _, err := eng.Query(Query{Path: Path{EdgeID(999999)}}); err == nil {
		t.Error("out-of-range edge id accepted")
	}
	if _, err := eng.Query(Query{Path: Path{EdgeID(-1), ids["A"]}}); err == nil {
		t.Error("negative edge id accepted")
	}
}

func TestQueryPaperExample(t *testing.T) {
	eng, ids := exampleEngine(t, Options{Partition: NoPartition, BucketSeconds: 1})
	res, err := eng.Query(Query{
		Path:       Path{ids["A"], ids["B"], ids["E"]},
		From:       0,
		Until:      15,
		FilterUser: true,
		User:       1,
		Beta:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subs) != 1 || res.Subs[0].Samples != 2 {
		t.Fatalf("subs = %+v", res.Subs)
	}
	if res.MeanSeconds != 10.5 {
		t.Errorf("MeanSeconds = %v", res.MeanSeconds)
	}
	if res.Histogram.Count(10) != 1 || res.Histogram.Count(11) != 1 {
		t.Error("histogram shape wrong")
	}
	if res.IndexScans < 1 {
		t.Error("IndexScans not counted")
	}
}

func TestQueryDefaultsAndPeriodic(t *testing.T) {
	eng, ids := exampleEngine(t, Options{BucketSeconds: 1})
	// Periodic window around t=4 (time of day ~00:00:04), default beta
	// forces relaxation down to single segments.
	res, err := eng.Query(Query{
		Path:   Path{ids["A"], ids["B"], ids["E"]},
		Around: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram == nil || res.Histogram.Total() == 0 {
		t.Fatal("no histogram")
	}
	if res.MeanSeconds <= 0 {
		t.Error("mean missing")
	}
	// The mean must be near the true full-path durations (10-11 s).
	if res.MeanSeconds < 8 || res.MeanSeconds > 14 {
		t.Errorf("MeanSeconds = %v implausible", res.MeanSeconds)
	}
}

func TestQueryUntilDefaultsToDataEnd(t *testing.T) {
	eng, ids := exampleEngine(t, Options{Partition: NoPartition, BucketSeconds: 1})
	res, err := eng.Query(Query{Path: Path{ids["E"]}, Beta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subs[0].Samples != 3 {
		t.Fatalf("samples = %d, want all 3 E traversals", res.Subs[0].Samples)
	}
}

func TestOptionsMatrix(t *testing.T) {
	// Every option combination must produce a working engine with sane
	// results on the example data.
	for _, opt := range []Options{
		{},
		{Partition: ByCategory},
		{Partition: ByZoneAndCategory},
		{Partition: MainRoadUserFilters},
		{Partition: EverySegment},
		{LongestPrefixSplitting: true},
		{Estimator: EstimatorISA},
		{Estimator: EstimatorCSSFast},
		{Estimator: EstimatorCSSAcc},
		{Estimator: EstimatorBTFast},
		{Estimator: EstimatorBTAcc},
		{PartitionDays: 7},
		{BucketSeconds: 5, IntervalSizes: []int64{600, 1200}},
		{OldestFirst: true},
	} {
		eng, ids := exampleEngine(t, opt)
		res, err := eng.Query(Query{Path: Path{ids["A"], ids["B"], ids["E"]}, Around: 4, Beta: 2})
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if res.Histogram == nil || res.Histogram.Total() == 0 {
			t.Fatalf("opts %+v: empty histogram", opt)
		}
		if res.MeanSeconds < 5 || res.MeanSeconds > 25 {
			t.Fatalf("opts %+v: mean %v", opt, res.MeanSeconds)
		}
	}
}

// TestExcludeTrajectoryZero pins the zero-value fix: trajectory 0 is a
// valid id and must be excludable; without the Exclude flag the id field is
// ignored entirely.
func TestExcludeTrajectoryZero(t *testing.T) {
	eng, ids := exampleEngine(t, Options{Partition: NoPartition, BucketSeconds: 1})
	all, err := eng.Query(Query{Path: Path{ids["A"]}, Beta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if all.Subs[0].Samples != 4 {
		t.Fatalf("unfiltered samples = %d, want 4", all.Subs[0].Samples)
	}
	// Trajectory 0 (the earliest start) traversed A: excluding it must
	// drop exactly one sample.
	excl, err := eng.Query(Query{Path: Path{ids["A"]}, Beta: 10, Exclude: true, ExcludeTraj: 0})
	if err != nil {
		t.Fatal(err)
	}
	if excl.Subs[0].Samples != 3 {
		t.Fatalf("samples with trajectory 0 excluded = %d, want 3", excl.Subs[0].Samples)
	}
	// Without the flag, a non-zero ExcludeTraj is inert.
	inert, err := eng.Query(Query{Path: Path{ids["A"]}, Beta: 10, ExcludeTraj: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inert.Subs[0].Samples != 4 {
		t.Fatalf("samples with inert ExcludeTraj = %d, want 4", inert.Subs[0].Samples)
	}
}

// TestPeriodicAnchorAtMidnight pins the other zero-value fix: the Periodic
// flag makes Around == 0 (exactly midnight) a valid periodic anchor instead
// of silently degrading to a fixed interval.
func TestPeriodicAnchorAtMidnight(t *testing.T) {
	eng, ids := exampleEngine(t, Options{BucketSeconds: 1})
	// The example traversals all happen seconds after midnight, so a
	// 15-minute window centred on 00:00:00 covers them.
	res, err := eng.Query(Query{Path: Path{ids["A"]}, Periodic: true, Around: 0, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subs[0].Samples != 4 || res.Subs[0].Fallback {
		t.Fatalf("midnight periodic window: %+v", res.Subs[0])
	}
}

// TestEngineExtendPublicAPI drives the library-level ingestion path: a
// batch of newer trajectories becomes queryable with no engine rebuild.
func TestEngineExtendPublicAPI(t *testing.T) {
	eng, ids := exampleEngine(t, Options{Partition: NoPartition, BucketSeconds: 1})
	if eng.Epoch() != 0 || eng.Trajectories() != 4 {
		t.Fatalf("fresh engine: epoch %d, %d trajectories", eng.Epoch(), eng.Trajectories())
	}
	day := int64(86400)
	batch := NewStore()
	batch.Add(3, []Entry{
		{Edge: ids["A"], T: day, TT: 5},
		{Edge: ids["B"], T: day + 5, TT: 5},
		{Edge: ids["E"], T: day + 10, TT: 5},
	})
	// β above the match count so the scan is effectively exhaustive and the
	// new batch's traversal must show up as one extra sample.
	probe := Query{Path: Path{ids["A"], ids["B"], ids["E"]}, Until: 3 * day, Beta: 10}
	before, err := eng.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Extend(batch)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if st.Epoch != 1 || st.Trajectories != 1 || st.TotalTrajectories != 5 {
		t.Fatalf("ingest stats = %+v", st)
	}
	if eng.Epoch() != 1 || eng.Partitions() != 2 || eng.Trajectories() != 5 {
		t.Fatalf("post-extend: epoch %d, %d partitions, %d trajectories",
			eng.Epoch(), eng.Partitions(), eng.Trajectories())
	}
	after, err := eng.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	if after.FullCacheHit {
		t.Fatal("post-extend query served from the pre-extend full-result cache")
	}
	if after.Epoch != 1 || before.Epoch != 0 {
		t.Fatalf("result epochs %d/%d, want 0/1", before.Epoch, after.Epoch)
	}
	if want := before.Subs[0].Samples + 1; after.Subs[0].Samples != want {
		t.Fatalf("post-extend samples = %d, want %d (new batch included)",
			after.Subs[0].Samples, want)
	}
	// An overlapping batch is rejected wholesale and changes nothing.
	bad := NewStore()
	bad.Add(3, []Entry{{Edge: ids["A"], T: 1, TT: 2}})
	if _, err := eng.Extend(bad); err == nil {
		t.Fatal("overlapping batch accepted")
	}
	if eng.Epoch() != 1 || eng.Trajectories() != 5 {
		t.Fatal("failed Extend changed the engine")
	}
}

func TestSpeedLimitEstimate(t *testing.T) {
	eng, ids := exampleEngine(t, Options{})
	got := eng.SpeedLimitEstimate(Path{ids["A"], ids["B"], ids["E"]})
	if math.Abs(got-(29.5+8.6+7.2)) > 0.2 {
		t.Errorf("SpeedLimitEstimate = %v", got)
	}
}

func TestIndexMemoryAndPartitions(t *testing.T) {
	eng, _ := exampleEngine(t, Options{PartitionDays: 1})
	c, wt, user, forest := eng.IndexMemory()
	if c <= 0 || wt <= 0 || user <= 0 || forest <= 0 {
		t.Errorf("memory components: %d %d %d %d", c, wt, user, forest)
	}
	if eng.Partitions() < 1 {
		t.Error("partitions")
	}
}

func TestFallbackSegment(t *testing.T) {
	// Querying F with a driver who never drove it: relaxation drops the
	// filter and uses tr2's traversal; no fallback needed.
	eng, ids := exampleEngine(t, Options{BucketSeconds: 1})
	res, err := eng.Query(Query{
		Path: Path{ids["F"]}, Around: 10, FilterUser: true, User: 1, Beta: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subs[0].Fallback {
		t.Error("unexpected fallback")
	}
	if res.Subs[0].MeanTT != 6 {
		t.Errorf("MeanTT = %v, want 6", res.Subs[0].MeanTT)
	}
}
