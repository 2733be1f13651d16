package experiments

import (
	"strings"
	"sync"
	"testing"

	"pathhist/internal/query"
	"pathhist/internal/workload"
)

// tinyEnv is shared across tests (building the dataset once).
var (
	tinyOnce sync.Once
	tinyEnvV *Env
)

func tinyEnv(t testing.TB) *Env {
	t.Helper()
	tinyOnce.Do(func() {
		cfg := workload.SmallConfig()
		cfg.Net.Cities = 3
		cfg.Net.GridSize = 5
		cfg.Drivers = 25
		cfg.Days = 60
		cfg.TargetTrips = 1200
		tinyEnvV = NewEnv(cfg, 0.1, 5)
	})
	if len(tinyEnvV.Queries) == 0 {
		t.Fatal("tiny env has no queries")
	}
	return tinyEnvV
}

func TestQueryTypeNames(t *testing.T) {
	if TemporalFilters.String() == "" || UserFilters.String() == "" || SPQOnly.String() == "" {
		t.Error("names empty")
	}
}

func TestSPQFor(t *testing.T) {
	env := tinyEnv(t)
	q := env.Queries[0]
	tf := SPQFor(q, TemporalFilters, 20)
	if !tf.Interval.IsPeriodic() || tf.Filter.HasPredicate() || tf.Filter.ExcludeTraj != q.Traj {
		t.Errorf("temporal SPQ wrong: %+v", tf)
	}
	uf := SPQFor(q, UserFilters, 20)
	if !uf.Filter.HasPredicate() || uf.Filter.User != q.User {
		t.Errorf("user SPQ wrong: %+v", uf)
	}
	so := SPQFor(q, SPQOnly, 20)
	if so.Interval.IsPeriodic() || so.Interval.End != q.T0 {
		t.Errorf("SPQ-only wrong: %+v", so)
	}
}

func TestRunCellProducesSaneMetrics(t *testing.T) {
	env := tinyEnv(t)
	ix := env.Index(0)
	p := env.RunCell(ix, TemporalFilters, query.Partitioner{Kind: query.ZoneKind}, query.SigmaR, 20, nil)
	if p.Queries != len(env.Queries) {
		t.Fatalf("queries = %d", p.Queries)
	}
	if p.SMAPE <= 0 || p.SMAPE > 100 {
		t.Errorf("sMAPE = %v implausible", p.SMAPE)
	}
	if p.WeightedE <= 0 || p.WeightedE > 150 {
		t.Errorf("weighted error = %v implausible", p.WeightedE)
	}
	if p.AvgSubLen < 1 {
		t.Errorf("avg sub length = %v", p.AvgSubLen)
	}
	if p.LogL >= 0 || p.LogL < -12 {
		t.Errorf("logL = %v implausible", p.LogL)
	}
	if p.MsPerQuery <= 0 {
		t.Errorf("ms/query = %v", p.MsPerQuery)
	}
}

func TestBaselinesOrdering(t *testing.T) {
	env := tinyEnv(t)
	b := env.RunBaselines()
	ix := env.Index(0)
	online := env.RunCell(ix, TemporalFilters, query.Partitioner{Kind: query.ZoneKind}, query.SigmaR, 20, nil)
	// Section 6.1: speed limits worst, per-segment-all better, online
	// methods best.
	if !(b.SpeedLimitSMAPE > b.SegmentAllSMAPE) {
		t.Errorf("speed-limit (%v) should be worse than segment-all (%v)",
			b.SpeedLimitSMAPE, b.SegmentAllSMAPE)
	}
	if !(b.SegmentAllSMAPE > online.SMAPE) {
		t.Errorf("segment-all (%v) should be worse than online (%v)",
			b.SegmentAllSMAPE, online.SMAPE)
	}
}

func TestPeriodicBeatsSPQOnly(t *testing.T) {
	// Figure 5c: SPQ-only cannot observe time-of-day congestion.
	env := tinyEnv(t)
	ix := env.Index(0)
	pt := query.Partitioner{Kind: query.ZoneKind}
	periodic := env.RunCell(ix, TemporalFilters, pt, query.SigmaR, 20, nil)
	fixed := env.RunCell(ix, SPQOnly, pt, query.SigmaR, 20, nil)
	if periodic.SMAPE >= fixed.SMAPE {
		t.Errorf("periodic (%v) should beat SPQ-only (%v)", periodic.SMAPE, fixed.SMAPE)
	}
	// And SPQ-only is faster (longer sub-paths, fewer scans).
	if fixed.AvgSubLen <= periodic.AvgSubLen {
		t.Errorf("SPQ-only sub-paths (%v) should be longer than periodic (%v)",
			fixed.AvgSubLen, periodic.AvgSubLen)
	}
}

func TestRunGridAndFormat(t *testing.T) {
	env := tinyEnv(t)
	spec := GridSpec{
		QType:        TemporalFilters,
		Partitioners: []query.Partitioner{{Kind: query.ZoneKind}, {Kind: query.Regular, P: 1}},
		Splitters:    []query.Splitter{query.SigmaR},
		Betas:        []int{10, 20},
	}
	points := env.RunGrid(spec)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	txt := FormatGrid(points, func(p GridPoint) float64 { return p.SMAPE }, "sMAPE")
	if !strings.Contains(txt, "piZ/sigmaR") || !strings.Contains(txt, "pi1/sigmaR") {
		t.Errorf("table missing methods:\n%s", txt)
	}
	if FormatGrid(nil, func(p GridPoint) float64 { return 0 }, "x") == "" {
		t.Error("empty grid format")
	}
}

func TestRunMemoryShape(t *testing.T) {
	env := tinyEnv(t)
	rows := env.RunMemory([]int{7, 0})
	if len(rows) != 3 { // 7, FULL, BT
		t.Fatalf("rows = %d", len(rows))
	}
	weekly, full, bt := rows[0], rows[1], rows[2]
	if weekly.Partitions <= full.Partitions {
		t.Error("weekly should have more partitions")
	}
	// Figure 10a: C grows with partitions; forest roughly flat; BT forest
	// larger than CSS forest.
	if weekly.CMiB <= full.CMiB {
		t.Errorf("C: weekly %v <= full %v", weekly.CMiB, full.CMiB)
	}
	if bt.ForestMiB <= full.ForestMiB {
		t.Errorf("BT forest (%v) should exceed CSS forest (%v)", bt.ForestMiB, full.ForestMiB)
	}
	// The served (frozen columnar) forest must undercut both tree layouts.
	for _, r := range []MemoryRow{full, bt} {
		if r.FrozenMiB >= r.ForestMiB {
			t.Errorf("%s: frozen forest (%v MiB) not smaller than tree layout (%v MiB)",
				r.Label, r.FrozenMiB, r.ForestMiB)
		}
	}
	if weekly.SetupSeconds <= 0 || full.TotalMiB <= 0 {
		t.Error("missing stats")
	}
	if got := FormatMemory(rows); !strings.Contains(got, "FULL") || !strings.Contains(got, "BT") {
		t.Errorf("FormatMemory:\n%s", got)
	}
}

func TestRunTodMemoryShape(t *testing.T) {
	env := tinyEnv(t)
	rows := env.RunTodMemory([]int{0}, []int{1, 10})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Finer buckets cost more (Figure 10b).
	if rows[0].MiB <= rows[1].MiB {
		t.Errorf("1-min buckets (%v) should exceed 10-min (%v)", rows[0].MiB, rows[1].MiB)
	}
	if got := FormatTodMemory(rows); !strings.Contains(got, "FULL") {
		t.Errorf("FormatTodMemory:\n%s", got)
	}
}

func TestRunQErrorOrdering(t *testing.T) {
	env := tinyEnv(t)
	rows := env.RunQError(300)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]QErrorRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.SubQueries == 0 {
			t.Fatalf("mode %s evaluated no sub-queries", r.Mode)
		}
	}
	// Figure 11a: ISA worst by a wide margin; Acc modes beat Fast modes.
	if byMode["ISA"].MeanLog10 <= byMode["CSS-Fast"].MeanLog10 {
		t.Errorf("ISA (%v) should be worse than CSS-Fast (%v)",
			byMode["ISA"].MeanLog10, byMode["CSS-Fast"].MeanLog10)
	}
	if byMode["CSS-Acc"].MeanLog10 > byMode["CSS-Fast"].MeanLog10 {
		t.Errorf("CSS-Acc (%v) should beat CSS-Fast (%v)",
			byMode["CSS-Acc"].MeanLog10, byMode["CSS-Fast"].MeanLog10)
	}
	if got := FormatQError(rows); !strings.Contains(got, "ISA") {
		t.Errorf("FormatQError:\n%s", got)
	}
}

func TestRunEstimatorSweep(t *testing.T) {
	env := tinyEnv(t)
	rows := env.RunEstimatorSweep([]int{0})
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCfg := map[string]EstimatorRuntimeRow{}
	for _, r := range rows {
		byCfg[r.Config] = r
		if r.MsPerQuery <= 0 {
			t.Fatalf("%s: ms/query %v", r.Config, r.MsPerQuery)
		}
	}
	// Figure 11c: estimator effect on accuracy is minuscule (within a few
	// percent of the no-estimator configuration).
	base := byCfg["CSS"].SMAPE
	for _, cfgName := range []string{"CSS-Fast", "CSS-Acc", "ISA"} {
		if d := byCfg[cfgName].SMAPE - base; d > 3 || d < -3 {
			t.Errorf("%s shifts sMAPE by %v (base %v)", cfgName, d, base)
		}
	}
	if got := FormatEstimatorSweep(rows, func(r EstimatorRuntimeRow) float64 { return r.MsPerQuery }, "ms"); !strings.Contains(got, "CSS-Acc") {
		t.Errorf("FormatEstimatorSweep:\n%s", got)
	}
}

func TestIndexBuildTiming(t *testing.T) {
	env := tinyEnv(t)
	if d := env.IndexBuildTiming(0); d <= 0 {
		t.Errorf("build timing = %v", d)
	}
}

func TestEnvHelpers(t *testing.T) {
	env := tinyEnv(t)
	if env.EdgeCount() <= 0 || env.NetworkPathLen() < 5 {
		t.Errorf("helpers: edges=%d pathlen=%v", env.EdgeCount(), env.NetworkPathLen())
	}
	// Index caching returns identical pointers.
	a := env.Index(0)
	b := env.Index(0)
	if a != b {
		t.Error("index not cached")
	}
}

func TestAblations(t *testing.T) {
	env := tinyEnv(t)
	zb := env.RunZoneBetaAblation(20)
	if len(zb) != 3 {
		t.Fatalf("zone-beta rows = %d", len(zb))
	}
	for _, r := range zb {
		if r.SMAPE <= 0 || r.MsPerQuery <= 0 {
			t.Fatalf("%s: empty metrics %+v", r.Name, r)
		}
	}
	// Relaxing β in some zones coarsens the final partitioning there.
	if zb[1].AvgSubLen < zb[0].AvgSubLen && zb[2].AvgSubLen < zb[0].AvgSubLen {
		t.Errorf("zone-relaxed β should allow longer sub-paths somewhere: %+v", zb)
	}
	se := env.RunShiftEnlargeAblation(20)
	if len(se) != 2 || se[0].Name == se[1].Name {
		t.Fatalf("shift rows = %+v", se)
	}
	sp := env.RunSplitterAblation(20)
	if len(sp) != 2 {
		t.Fatalf("splitter rows = %d", len(sp))
	}
	if got := FormatAblation(zb); !strings.Contains(got, "uniform") {
		t.Errorf("FormatAblation:\n%s", got)
	}
}
