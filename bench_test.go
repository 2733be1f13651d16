// Benchmarks regenerating the paper's tables and figures at test scale.
// Each BenchmarkFigN* corresponds to a panel of the paper's evaluation
// (Section 6); cmd/ttbench runs the same experiments at full scale and
// prints the complete tables. Accuracy metrics are attached to the timing
// output via b.ReportMetric, so a single -bench run shows both dimensions.
package pathhist

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pathhist/internal/card"
	"pathhist/internal/experiments"
	"pathhist/internal/gps"
	"pathhist/internal/hist"
	"pathhist/internal/mapmatch"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/snt"
	"pathhist/internal/suffix"
	"pathhist/internal/treeforest"
	"pathhist/internal/wal"
	"pathhist/internal/workload"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// env lazily builds the shared benchmark dataset (small scale).
func env(b testing.TB) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.SmallConfig()
		benchEnv = experiments.NewEnv(cfg, 0.05, 5)
	})
	if len(benchEnv.Queries) == 0 {
		b.Fatal("no queries in benchmark env")
	}
	return benchEnv
}

// BenchmarkTable1EstimateTT measures the speed-limit fallback (Table 1).
func BenchmarkTable1EstimateTT(b *testing.B) {
	g, ids := network.PaperExample()
	p := network.Path{ids["A"], ids["B"], ids["E"]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EstimatePathTT(p)
	}
}

// benchGridCell times one engine configuration over the query set and
// reports the paper's accuracy metrics alongside. Both memo levels are
// off so the cell measures the paper's scan cost, not memo hits; the
// cached serving path is measured by BenchmarkTripQueryParallel.
func benchGridCell(b *testing.B, qt experiments.QueryType, pt query.Partitioner, sp query.Splitter, beta int) {
	e := env(b)
	ix := e.Index(0)
	eng := query.NewEngine(ix, query.Config{Partitioner: pt, Splitter: sp, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true})
	qs := e.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		_ = eng.TripQuery(experiments.SPQFor(q, qt, beta))
	}
	b.StopTimer()
	p := e.RunCell(ix, qt, pt, sp, beta, nil)
	b.ReportMetric(p.SMAPE, "sMAPE%")
	b.ReportMetric(p.AvgSubLen, "subLen")
	b.ReportMetric(p.LogL, "logL")
}

// Figures 5-9, Temporal Filters panel (a): best method πZ/σR at β=20 vs the
// π1 baseline and the σL variant.
func BenchmarkFig5aTemporalPiZ(b *testing.B) {
	benchGridCell(b, experiments.TemporalFilters, query.Partitioner{Kind: query.ZoneKind}, query.SigmaR, 20)
}

func BenchmarkFig5aTemporalPi1Baseline(b *testing.B) {
	benchGridCell(b, experiments.TemporalFilters, query.Partitioner{Kind: query.Regular, P: 1}, query.SigmaR, 20)
}

func BenchmarkFig5aTemporalPiZSigmaL(b *testing.B) {
	benchGridCell(b, experiments.TemporalFilters, query.Partitioner{Kind: query.ZoneKind}, query.SigmaL, 20)
}

// Figures 5-9, User Filters panel (b): πMDM applies user predicates
// selectively; πC applies them everywhere.
func BenchmarkFig5bUserPiMDM(b *testing.B) {
	benchGridCell(b, experiments.UserFilters, query.Partitioner{Kind: query.MDM}, query.SigmaR, 20)
}

func BenchmarkFig5bUserPiC(b *testing.B) {
	benchGridCell(b, experiments.UserFilters, query.Partitioner{Kind: query.Category}, query.SigmaR, 20)
}

// Figures 5-9, SPQ Only panel (c).
func BenchmarkFig5cSPQOnlyPiN(b *testing.B) {
	benchGridCell(b, experiments.SPQOnly, query.Partitioner{Kind: query.None}, query.SigmaR, 20)
}

// BenchmarkFig9QueryLatency sweeps β for the headline latency figure.
func BenchmarkFig9QueryLatency(b *testing.B) {
	for _, beta := range []int{10, 30, 50} {
		b.Run(map[int]string{10: "beta10", 30: "beta30", 50: "beta50"}[beta], func(b *testing.B) {
			benchGridCell(b, experiments.TemporalFilters, query.Partitioner{Kind: query.ZoneKind}, query.SigmaR, beta)
		})
	}
}

// BenchmarkFig10IndexBuild measures index construction (Figure 10c).
func BenchmarkFig10IndexBuild(b *testing.B) {
	e := env(b)
	for _, cfg := range []struct {
		name string
		days int
	}{
		{"FULL", 0},
		{"30d", 30},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := snt.Build(e.DS.G, e.DS.Store, snt.Options{PartitionDays: cfg.days})
				if i == b.N-1 {
					m := ix.Memory()
					b.ReportMetric(float64(m.Total())/1024/1024, "MiB")
					b.ReportMetric(float64(ix.NumPartitions()), "partitions")
				}
			}
		})
	}
}

// BenchmarkFig10TreeForest measures rebuilding the paper's two tree layouts
// from the served columns and reports their modelled size (Figure 10a).
func BenchmarkFig10TreeForest(b *testing.B) {
	ff := env(b).Index(0).Frozen()
	for _, kind := range []treeforest.Kind{treeforest.CSS, treeforest.BPlus} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := treeforest.FromFrozen(ff, kind)
				if i == b.N-1 {
					b.ReportMetric(float64(f.SizeBytes(treeforest.PayloadBytesNoPartition))/1024/1024, "MiB")
				}
			}
		})
	}
}

// BenchmarkFig10bTodHistograms measures the cost and size of deriving the
// 1-minute time-of-day histograms from one prebuilt index (Figure 10b).
func BenchmarkFig10bTodHistograms(b *testing.B) {
	ix := env(b).Index(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs := ix.TodHistograms(60)
		if i == b.N-1 {
			b.ReportMetric(float64(experiments.TodBytes(hs))/1024/1024, "MiB")
		}
	}
}

// BenchmarkFig11aEstimator measures cardinality estimation itself and
// reports the q-error (Figure 11a).
func BenchmarkFig11aEstimator(b *testing.B) {
	e := env(b)
	for _, mode := range []card.Mode{card.ISA, card.CSSFast, card.CSSAcc} {
		b.Run(mode.String(), func(b *testing.B) {
			ix := e.Index(0)
			est := card.New(ix, mode)
			pt := query.Partitioner{Kind: query.ZoneKind}
			var subs []query.SPQ
			for _, q := range e.Queries {
				subs = append(subs, pt.Partition(e.DS.G, experiments.SPQFor(q, experiments.TemporalFilters, 20))...)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := subs[i%len(subs)]
				_, _ = est.Estimate(s.Path, s.Interval, s.Filter)
			}
		})
	}
}

// BenchmarkFig11bEstimatorRuntime measures end-to-end query time with and
// without the estimator (Figure 11b).
func BenchmarkFig11bEstimatorRuntime(b *testing.B) {
	e := env(b)
	for _, cfg := range []struct {
		name string
		mode card.Mode
	}{
		{"CSS_off", card.Off},
		{"CSS_Fast", card.CSSFast},
		{"CSS_Acc", card.CSSAcc},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ix := e.Index(0)
			var est *card.Estimator
			if cfg.mode != card.Off {
				est = card.New(ix, cfg.mode)
			}
			eng := query.NewEngine(ix, query.Config{
				Partitioner:            query.Partitioner{Kind: query.ZoneKind},
				BucketWidth:            10,
				Estimator:              est,
				DisableCache:           true,
				DisableFullResultCache: true,
			})
			qs := e.Queries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
			}
		})
	}
}

// BenchmarkThroughputParallel measures multi-client query throughput (the
// parallelization opportunity the paper's outlook names) with the cache
// disabled: every query pays the full scan cost, concurrency alone is
// measured.
func BenchmarkThroughputParallel(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	eng := query.NewEngine(ix, query.Config{
		Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true,
	})
	qs := e.Queries
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&next, 1)
			q := qs[int(i)%len(qs)]
			_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
		}
	})
}

// BenchmarkTripQuerySequential is the perf-trajectory baseline: Procedure 6
// on one client with neither cache — every query is processed in full.
func BenchmarkTripQuerySequential(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	eng := query.NewEngine(ix, query.Config{
		Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10,
		DisableCache: true, DisableFullResultCache: true,
	})
	qs := e.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
	}
}

// BenchmarkTripQueryParallel is the production serving path: one shared
// engine with both caches, driven by concurrent clients via b.RunParallel
// (the parallelism is across queries; each query runs Procedure 6
// sequentially). Steady state is
// dominated by full-result cache hits, which is precisely the serving
// scenario the caches exist for; compare against
// BenchmarkTripQuerySequential for the engine-level speedup.
func BenchmarkTripQueryParallel(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	eng := query.NewEngine(ix, query.Config{
		Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10,
	})
	qs := e.Queries
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&next, 1)
			q := qs[int(i)%len(qs)]
			_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
		}
	})
}

// BenchmarkTripQueryFullCacheHit is the warm serving fast path: repeated
// identical trips answered whole from the full-result cache (no
// partitioning, scans or convolution).
func BenchmarkTripQueryFullCacheHit(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	eng := query.NewEngine(ix, query.Config{
		Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10,
	})
	qs := e.Queries
	for _, q := range qs {
		_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		res := eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
		if !res.FullCacheHit {
			b.Fatal("warm query missed the full-result cache")
		}
	}
}

// copyStore deep-copies a trajectory store.
func copyStore(src *Store) *Store {
	out := NewStore()
	for i := 0; i < src.Len(); i++ {
		tr := src.Get(TrajID(i))
		out.Add(tr.User, append([]Entry(nil), tr.Seq...))
	}
	return out
}

// shiftStore returns a copy of the store with every timestamp moved by the
// given offset — the trick that turns one template batch into an unbounded
// stream of strictly-newer batches for the extend benchmarks.
func shiftStore(src *Store, by int64) *Store {
	out := NewStore()
	for i := 0; i < src.Len(); i++ {
		tr := src.Get(TrajID(i))
		seq := make([]Entry, len(tr.Seq))
		for j, en := range tr.Seq {
			en.T += by
			seq[j] = en
		}
		out.Add(tr.User, seq)
	}
	return out
}

// extendBenchEnv builds a live-ingestion scenario: an engine over the first
// quiescent split of the benchmark dataset, a template batch from the rest,
// and the shift span that keeps successive shifted batches strictly newer
// than everything before them.
func extendBenchEnv(b *testing.B, opts Options) (*Engine, *Store, int64) {
	b.Helper()
	e := env(b)
	batches := quiescentBatches(copyStore(e.DS.Store), 2)
	if len(batches) < 2 {
		b.Skip("dataset has no quiescent split point")
	}
	eng, err := NewEngine(e.DS.G, batches[0], opts)
	if err != nil {
		b.Fatal(err)
	}
	_, tmax := e.DS.Store.TimeRange()
	tmplMin := batches[1].Get(0).StartTime()
	span := tmax - tmplMin + 86400
	return eng, batches[1], span
}

// BenchmarkEngineExtend measures the cost of ingesting one batch on an
// otherwise idle engine: FM-index construction for the new partition plus
// the copy-on-write column appends and the epoch publication.
func BenchmarkEngineExtend(b *testing.B) {
	eng, tmpl, span := extendBenchEnv(b, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Extend(shiftStore(tmpl, int64(i+1)*span)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tmpl.Len()), "trajs/batch")
	b.ReportMetric(float64(tmpl.NumTraversals()), "records/batch")
}

// BenchmarkExtendWhileServing is the live-ingestion serving scenario: b.N
// batch ingests on an engine that concurrent query goroutines keep under
// constant load (periodic queries whose cache keys persist across epochs,
// so every extend also exercises the lazy invalidation path). The reported
// time is ingest latency under load; the queries-served metric shows the
// engine kept answering throughout.
func BenchmarkExtendWhileServing(b *testing.B) {
	eng, tmpl, span := extendBenchEnv(b, Options{})
	e := env(b)
	qs := e.Queries
	stop := make(chan struct{})
	var served atomic.Int64
	var qerr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				if _, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20}); err != nil {
					qerr.Store(err)
					return
				}
				served.Add(1)
			}
		}(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Extend(shiftStore(tmpl, int64(i+1)*span)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if err, ok := qerr.Load().(error); ok && err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(served.Load())/float64(b.N), "queries/extend")
	b.ReportMetric(float64(tmpl.Len()), "trajs/batch")
}

// fragmentedIndex builds an index over the oldest half of e's dataset and
// ingests the rest through up to nBatches Extend batches cut at quiescent
// boundaries, returning the fragmented index (one partition per batch plus
// the base).
func fragmentedIndex(e *experiments.Env, nBatches int) *snt.Index {
	s := e.DS.Store.Slice(0, e.DS.Store.Len())
	cuts := workload.IngestionCuts(s, nBatches)
	if cuts == nil {
		// No split points: the whole dataset in one build.
		return snt.Build(e.DS.G, s, snt.Options{})
	}
	ix := snt.Build(e.DS.G, s.Slice(0, cuts[0]), snt.Options{})
	for b := range cuts {
		hi := s.Len()
		if b+1 < len(cuts) {
			hi = cuts[b+1]
		}
		next, err := ix.Extend(s.Slice(cuts[b], hi))
		if err != nil {
			panic(fmt.Sprintf("fragmenting extend %d: %v", b, err))
		}
		ix = next
	}
	return ix
}

// compactAll merges every partition of ix into one, preparing and applying
// back to back.
func compactAll(ix *snt.Index) (*snt.Index, snt.CompactionStats, error) {
	p, err := ix.PrepareCompaction(snt.CompactionPolicy{TriggerPartitions: -1}, nil)
	if err != nil {
		return nil, snt.CompactionStats{}, err
	}
	return ix.ApplyCompaction(p)
}

// BenchmarkManyPartitions is the ingest-degradation headline (PR 4): cold
// TripQuery latency over the same data in three index layouts — fragmented
// by 32 live Extend batches (one backward search per partition per
// sub-query), the same index after Compact, and a single-partition
// from-scratch rebuild. The acceptance bar is compacted within ~1.2x of
// rebuilt, with fragmented several times worse.
func BenchmarkManyPartitions(b *testing.B) {
	e := env(b)
	frag := fragmentedIndex(e, 32)
	compacted, _, err := compactAll(frag)
	if err != nil {
		b.Fatal(err)
	}
	rebuilt := e.Index(0)
	for _, cfg := range []struct {
		name string
		ix   *snt.Index
	}{
		{"fragmented32", frag},
		{"compacted", compacted},
		{"rebuilt", rebuilt},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := query.NewEngine(cfg.ix, query.Config{
				Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10,
				DisableCache: true, DisableFullResultCache: true,
			})
			qs := e.Queries
			b.ReportMetric(float64(cfg.ix.NumPartitions()), "partitions")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				_ = eng.TripQuery(experiments.SPQFor(q, experiments.TemporalFilters, 20))
			}
		})
	}
}

// BenchmarkCompact measures the off-path merge itself: compacting the
// 33-partition fragmented index into one (trajectory-string reconstruction
// from the frozen columns, suffix arrays, FM-indexes, column rewrite).
func BenchmarkCompact(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frag := fragmentedIndex(e, 32)
		b.StartTimer()
		compacted, st, err := compactAll(frag)
		if err != nil {
			b.Fatal(err)
		}
		if compacted.NumPartitions() != 1 {
			b.Fatalf("partitions = %d", compacted.NumPartitions())
		}
		if i == b.N-1 {
			b.ReportMetric(float64(st.RecordsRebuilt), "records")
			b.ReportMetric(float64(st.PartitionsBefore), "partitionsBefore")
		}
	}
}

// BenchmarkWALAppend prices the durability step alone: one acknowledged
// batch's write + fsync into the ingest write-ahead log.
func BenchmarkWALAppend(b *testing.B) {
	_, tmpl, _ := extendBenchEnv(b, Options{})
	var payload bytes.Buffer
	if _, err := tmpl.WriteTo(&payload); err != nil {
		b.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	b.SetBytes(int64(payload.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Append(uint64(i*tmpl.Len()), tmpl.Len(), payload.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := log.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.FsyncNanos)/1e6/float64(st.Appends), "fsync-ms")
	}
}

// --- Micro-benchmarks of the substrates ---

func BenchmarkSuffixArraySAIS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 18
	text := make([]int32, n)
	for i := range text {
		text[i] = int32(1 + rng.Intn(2000))
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = suffix.Array(text, 2002)
	}
}

func BenchmarkFMIndexBackwardSearch(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	qs := e.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.PathCount(qs[i%len(qs)].Path)
	}
}

// BenchmarkGetTravelTimesScratch is the zero-allocation scan path: sub-paths
// of up to four segments, 900 s periodic windows, β = 20, over one held
// Scratch.
func BenchmarkGetTravelTimesScratch(b *testing.B) {
	e := env(b)
	ix := e.Index(0)
	qs := e.Queries
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		sub := q.Path
		if len(sub) > 4 {
			sub = sub[:4]
		}
		_, _ = ix.GetTravelTimesWith(sc, sub, snt.PeriodicAround(q.T0, 900), snt.NoFilter, 20)
	}
}

// BenchmarkGetTravelTimesPartitioned is BenchmarkGetTravelTimesScratch over
// 7-day temporal partitions, where the admit test reads each record's
// partition through its trajectory: at the usual β = 20 and exhaustive
// (β = 0), where every record of the window is admitted or refused.
func BenchmarkGetTravelTimesPartitioned(b *testing.B) {
	e := env(b)
	ix := e.Index(7)
	qs := e.Queries
	for _, beta := range []int{20, 0} {
		b.Run(fmt.Sprintf("beta%d", beta), func(b *testing.B) {
			sc := snt.AcquireScratch()
			defer snt.ReleaseScratch(sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				sub := q.Path
				if len(sub) > 4 {
					sub = sub[:4]
				}
				_, _ = ix.GetTravelTimesWith(sc, sub, snt.PeriodicAround(q.T0, 900), snt.NoFilter, beta)
			}
		})
	}
}

func BenchmarkHistogramConvolve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]int, 50)
	ys := make([]int, 50)
	for i := range xs {
		xs[i] = 300 + rng.Intn(120)
		ys[i] = 500 + rng.Intn(200)
	}
	h1 := hist.FromSamples(xs, 10)
	h2 := hist.FromSamples(ys, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h1.Convolve(h2)
	}
}

func BenchmarkMapMatchTrace(b *testing.B) {
	cfg := network.DefaultGenConfig()
	cfg.Cities = 3
	cfg.GridSize = 6
	res := network.Generate(cfg)
	rng := rand.New(rand.NewSource(4))
	sim := gps.NewSimulator(res.Graph, rng)
	router := network.NewRouter(res.Graph)
	route := router.Route(res.CityVertices[0][10], res.CityVertices[1][10])
	d := gps.Driver{CruiseFactor: 1, CityFactor: 1}
	ground := sim.SimulateTraversal(route, 1335830400+9*3600, &d)
	fixes := sim.EmitFixes(ground, 4)
	matcher := mapmatch.NewMatcher(res.Graph)
	b.SetBytes(int64(len(fixes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matcher.Match(fixes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicAPIQuery(b *testing.B) {
	e := env(b)
	eng, err := NewEngine(e.DS.G, e.DS.Store, Options{Estimator: EstimatorCSSFast})
	if err != nil {
		b.Fatal(err)
	}
	qs := e.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := eng.Query(Query{Path: q.Path, Around: q.T0, Beta: 20, Exclude: true, ExcludeTraj: q.Traj}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Restart persistence (PR 5) ---
//
// The headline pair: BenchmarkSnapshotBuild is what a restart costs without
// persistence (read trajectories, rebuild suffix arrays/BWTs, freeze the
// forest, rebuild the estimator); BenchmarkSnapshotLoad restores the same
// serving-ready engine from snapshot bytes. End to end the pair shows up in
// `sh bench/run.sh --trace 1` as snapshot.load_copied_ms against snt.build_s.

// snapshotBenchOpts mirrors the ttserve serving configuration.
var snapshotBenchOpts = Options{Partition: ByZone, Estimator: EstimatorCSSFast}

// BenchmarkSnapshotBuild is the from-scratch path a snapshot load replaces.
func BenchmarkSnapshotBuild(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(e.DS.G, e.DS.Store, snapshotBenchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWrite measures serialising the served index.
func BenchmarkSnapshotWrite(b *testing.B) {
	e := env(b)
	eng, err := NewEngine(e.DS.G, e.DS.Store, snapshotBenchOpts)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Snapshot(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		size = st.Bytes
	}
	b.StopTimer()
	b.SetBytes(size)
	b.ReportMetric(float64(size), "snapshot_bytes")
}

// BenchmarkSnapshotLoad restores a serving-ready engine from a snapshot
// file, read into memory and decoded (the restart-with-persistence path).
func BenchmarkSnapshotLoad(b *testing.B) {
	e := env(b)
	eng, err := NewEngine(e.DS.G, e.DS.Store, snapshotBenchOpts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	path := writeSnapshotImage(b, buf.Bytes())
	q := e.Queries[0]
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := LoadSnapshotFile(e.DS.G, path, snapshotBenchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Serving-ready, not just decoded: answer one real query.
			b.StopTimer()
			if _, err := restored.Query(Query{Path: q.Path, Around: q.T0, Beta: 20}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkSnapshotLoadMapped is the zero-copy restart path (PR 10): the
// snapshot file is memory-mapped read-only and frozen columns decode as
// views into the mapping instead of heap copies (`sh bench/run.sh --trace 1`
// reports the pair as snapshot.load_mapped_ms and snapshot.load_copied_ms).
func BenchmarkSnapshotLoadMapped(b *testing.B) {
	e := env(b)
	eng, err := NewEngine(e.DS.G, e.DS.Store, snapshotBenchOpts)
	if err != nil {
		b.Fatal(err)
	}
	st, err := eng.SnapshotFileIn(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	q := e.Queries[0]
	b.SetBytes(st.Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := LoadSnapshotFileMapped(e.DS.G, st.Path, snapshotBenchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Serving-ready, not just mapped: answer one real query.
			b.StopTimer()
			if _, err := restored.Query(Query{Path: q.Path, Around: q.T0, Beta: 20}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
