// Package experiments reproduces the paper's evaluation (Section 6): one
// runner per figure, each returning the rows/series the paper plots.
// cmd/ttbench prints them; bench_test.go wraps them in testing.B benchmarks;
// EXPERIMENTS.md records the measured shapes against the paper's.
package experiments

import (
	"fmt"
	"time"

	"pathhist/internal/card"
	"pathhist/internal/metrics"
	"pathhist/internal/query"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// QueryType is the three query families of Section 6.
type QueryType int

// The evaluated query types.
const (
	TemporalFilters QueryType = iota // periodic interval, no user filter
	UserFilters                      // periodic interval + user filter
	SPQOnly                          // fixed interval [0, t0), no user filter
)

func (q QueryType) String() string {
	switch q {
	case TemporalFilters:
		return "Temporal Filters"
	case UserFilters:
		return "User Filters"
	default:
		return "SPQ Only"
	}
}

// Gamma and the log-likelihood uniform support bounds (Section 5.3.3;
// gamma = 0.99, h = 10 s in the paper's Figure 8).
const (
	Gamma    = 0.99
	LogLTmin = 0
	LogLTmax = 4 * 3600
)

// Env caches the dataset, the query set and built indexes across
// experiments.
type Env struct {
	DS      *workload.Dataset
	Queries []workload.Query
	indexes map[int]*snt.Index // by partition size in days
}

// NewEnv builds the dataset and derives the query set (frac defaults to the
// paper's 1% when <= 0; minLen filters out trivial trips).
func NewEnv(cfg workload.Config, frac float64, minLen int) *Env {
	if frac <= 0 {
		frac = 0.01
	}
	ds := workload.BuildDataset(cfg)
	return &Env{
		DS:      ds,
		Queries: ds.MakeQueries(frac, minLen, cfg.Seed+1),
		indexes: make(map[int]*snt.Index),
	}
}

// Index returns (building and caching on demand) the index with the given
// temporal partition size in days (0 = FULL).
func (env *Env) Index(partDays int) *snt.Index {
	if ix, ok := env.indexes[partDays]; ok {
		return ix
	}
	ix := snt.Build(env.DS.G, env.DS.Store, snt.Options{PartitionDays: partDays})
	env.indexes[partDays] = ix
	return ix
}

// SPQFor derives the evaluation SPQ for a query under a query type
// (Section 5.2): periodic αmin window centred on the trip start, or the
// fixed interval [0, t0); user filter only for UserFilters. The query's own
// trajectory is always excluded (DESIGN.md §4, decision 5).
func SPQFor(q workload.Query, qt QueryType, beta int) query.SPQ {
	f := snt.Filter{User: traj.NoUser, ExcludeTraj: q.Traj}
	var iv snt.Interval
	switch qt {
	case SPQOnly:
		iv = snt.NewFixed(0, q.T0)
	case UserFilters:
		f.User = q.User
		iv = snt.PeriodicAround(q.T0, query.DefaultAlphas[0])
	default:
		iv = snt.PeriodicAround(q.T0, query.DefaultAlphas[0])
	}
	return query.SPQ{Path: q.Path, Interval: iv, Filter: f, Beta: beta}
}

// GridPoint is one cell of the Figures 5-9 grid.
type GridPoint struct {
	QType      QueryType
	Pi         string
	Sigma      string
	Beta       int
	SMAPE      float64 // Figure 5
	WeightedE  float64 // Figure 6
	AvgSubLen  float64 // Figure 7
	LogL       float64 // Figure 8
	MsPerQuery float64 // Figure 9
	Queries    int
}

// subActuals maps each final sub-path to the query trajectory's true travel
// time over that sub-path (the a^{Pj}_tri of Section 5.3.2). Final sub-paths
// partition the query path in order, so a linear walk suffices.
func subActuals(q workload.Query, subs []query.SubResult) []int64 {
	out := make([]int64, len(subs))
	off := 0
	for i := range subs {
		var sum int64
		for j := 0; j < len(subs[i].Path); j++ {
			sum += int64(q.Entries[off+j].TT)
		}
		out[i] = sum
		off += len(subs[i].Path)
	}
	return out
}

// RunCell evaluates one engine configuration over the whole query set.
func (env *Env) RunCell(ix *snt.Index, qt QueryType, pt query.Partitioner, sp query.Splitter, beta int, est *card.Estimator) GridPoint {
	eng := query.NewEngine(ix, query.Config{
		Partitioner: pt,
		Splitter:    sp,
		BucketWidth: 10,
		Estimator:   est,
	})
	g := env.DS.G
	pnt := GridPoint{QType: qt, Pi: pt.String(), Sigma: sp.String(), Beta: beta, Queries: len(env.Queries)}
	var elapsed time.Duration
	var smapeSum, weSum, logLSum, subLenSum float64
	for _, q := range env.Queries {
		res := eng.TripQuery(SPQFor(q, qt, beta))
		elapsed += res.Elapsed
		smapeSum += metrics.SMAPETerm(res.PredictedMean(), float64(q.Actual))
		actuals := subActuals(q, res.Subs)
		total := g.PathLength(q.Path)
		var we float64
		for i := range res.Subs {
			w := g.PathLength(res.Subs[i].Path) / total
			we += metrics.WeightedErrorTerm(w, res.Subs[i].MeanX(), float64(actuals[i]))
		}
		weSum += we
		logLSum += res.Hist.LogLikelihood(int(q.Actual), Gamma, LogLTmin, LogLTmax)
		subLenSum += res.AvgSubPathLen()
	}
	n := float64(len(env.Queries))
	if n == 0 {
		return pnt
	}
	pnt.SMAPE = smapeSum / n
	pnt.WeightedE = weSum / n
	pnt.LogL = logLSum / n
	pnt.AvgSubLen = subLenSum / n
	pnt.MsPerQuery = float64(elapsed.Microseconds()) / 1000 / n
	return pnt
}

// GridSpec enumerates one query type's method grid, mirroring the paper's
// figure legends.
type GridSpec struct {
	QType        QueryType
	Partitioners []query.Partitioner
	Splitters    []query.Splitter
	Betas        []int
}

// DefaultBetas is the paper's β sweep.
var DefaultBetas = []int{10, 20, 30, 40, 50}

// DefaultGrids returns the three grids of Figures 5-9: Temporal Filters
// compare πC, πZ, πZC, πN against the regular baselines π1, π2, π3; User
// Filters compare πC, πZ, πZC, πMDM; SPQ Only compares πC, πZ, πZC, πN.
func DefaultGrids() []GridSpec {
	both := []query.Splitter{query.SigmaR, query.SigmaL}
	return []GridSpec{
		{
			QType: TemporalFilters,
			Partitioners: []query.Partitioner{
				{Kind: query.Category}, {Kind: query.ZoneKind}, {Kind: query.ZoneCategory},
				{Kind: query.None},
				{Kind: query.Regular, P: 1}, {Kind: query.Regular, P: 2}, {Kind: query.Regular, P: 3},
			},
			Splitters: both,
			Betas:     DefaultBetas,
		},
		{
			QType: UserFilters,
			Partitioners: []query.Partitioner{
				{Kind: query.Category}, {Kind: query.ZoneKind}, {Kind: query.ZoneCategory},
				{Kind: query.MDM},
			},
			Splitters: both,
			Betas:     DefaultBetas,
		},
		{
			QType: SPQOnly,
			Partitioners: []query.Partitioner{
				{Kind: query.Category}, {Kind: query.ZoneKind}, {Kind: query.ZoneCategory},
				{Kind: query.None},
			},
			Splitters: both,
			Betas:     DefaultBetas,
		},
	}
}

// RunGrid evaluates a grid on the default (FULL, CSS) index.
func (env *Env) RunGrid(spec GridSpec) []GridPoint {
	ix := env.Index(0)
	var out []GridPoint
	for _, pt := range spec.Partitioners {
		for _, sp := range spec.Splitters {
			for _, beta := range spec.Betas {
				out = append(out, env.RunCell(ix, spec.QType, pt, sp, beta, nil))
			}
		}
	}
	return out
}

// Baselines is the pair of reference errors quoted in Section 6.1: using
// speed limits only, and using all available trajectories per segment.
type Baselines struct {
	SpeedLimitSMAPE float64
	SpeedLimitWE    float64
	SegmentAllSMAPE float64
	SegmentAllWE    float64
}

// RunBaselines computes both baselines on the default index.
func (env *Env) RunBaselines() Baselines {
	ix := env.Index(0)
	g := env.DS.G
	var b Baselines
	// Speed limits only.
	for _, q := range env.Queries {
		pred := g.EstimatePathTT(q.Path)
		b.SpeedLimitSMAPE += metrics.SMAPETerm(pred, float64(q.Actual))
		total := g.PathLength(q.Path)
		for _, e := range q.Entries {
			w := g.Edge(e.Edge).Length / total
			b.SpeedLimitWE += metrics.WeightedErrorTerm(w, g.EstimateTT(e.Edge), float64(e.TT))
		}
	}
	// All available trajectories per segment: π1 with the fixed interval
	// [0, t0) and no cardinality requirement.
	eng := query.NewEngine(ix, query.Config{
		Partitioner: query.Partitioner{Kind: query.Regular, P: 1},
		BucketWidth: 10,
	})
	for _, q := range env.Queries {
		res := eng.TripQuery(query.SPQ{
			Path:     q.Path,
			Interval: snt.NewFixed(0, q.T0),
			Filter:   snt.Filter{User: traj.NoUser, ExcludeTraj: q.Traj},
			Beta:     0,
		})
		b.SegmentAllSMAPE += metrics.SMAPETerm(res.PredictedMean(), float64(q.Actual))
		actuals := subActuals(q, res.Subs)
		total := g.PathLength(q.Path)
		for i := range res.Subs {
			w := g.PathLength(res.Subs[i].Path) / total
			b.SegmentAllWE += metrics.WeightedErrorTerm(w, res.Subs[i].MeanX(), float64(actuals[i]))
		}
	}
	n := float64(len(env.Queries))
	if n > 0 {
		b.SpeedLimitSMAPE /= n
		b.SpeedLimitWE /= n
		b.SegmentAllSMAPE /= n
		b.SegmentAllWE /= n
	}
	return b
}

// FormatGrid renders grid points as an aligned text table, one figure panel.
func FormatGrid(points []GridPoint, metric func(GridPoint) float64, name string) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	// Collect method (pi, sigma) rows and beta columns.
	type method struct{ pi, sigma string }
	var methods []method
	seen := map[method]bool{}
	betas := []int{}
	seenBeta := map[int]bool{}
	vals := map[method]map[int]float64{}
	for _, p := range points {
		m := method{p.Pi, p.Sigma}
		if !seen[m] {
			seen[m] = true
			methods = append(methods, m)
			vals[m] = map[int]float64{}
		}
		if !seenBeta[p.Beta] {
			seenBeta[p.Beta] = true
			betas = append(betas, p.Beta)
		}
		vals[m][p.Beta] = metric(p)
	}
	out := fmt.Sprintf("%-16s", name+" \\ beta")
	for _, b := range betas {
		out += fmt.Sprintf("%10d", b)
	}
	out += "\n"
	for _, m := range methods {
		out += fmt.Sprintf("%-16s", m.pi+"/"+m.sigma)
		for _, b := range betas {
			out += fmt.Sprintf("%10.2f", vals[m][b])
		}
		out += "\n"
	}
	return out
}

// EdgeCount is a convenience for reports.
func (env *Env) EdgeCount() int { return env.DS.G.NumEdges() }

// NetworkPathLen returns the average query path length in segments.
func (env *Env) NetworkPathLen() float64 {
	_, segs, _ := env.DS.AvgQueryStats(env.Queries)
	return segs
}
