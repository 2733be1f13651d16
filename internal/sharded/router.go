package sharded

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"pathhist"
	"pathhist/internal/hist"
	"pathhist/internal/query"
	"pathhist/internal/snt"
)

// ErrInsufficientCoverage is returned when so many shards are out that the
// surviving coverage falls below minCoverage — the one condition under
// which the router fails a query instead of degrading to a partial answer
// (the serving layer maps it to 503).
var ErrInsufficientCoverage = errors.New("sharded: insufficient shard coverage")

// Result is a routed query's outcome: the unsharded Result's payload plus
// the partial-result contract fields.
type Result struct {
	// Hist is the convolved travel-time histogram. With Partial false it is
	// bit-identical to the unsharded engine's answer over the union of the
	// stripes; with Partial true it is the exact answer over the surviving
	// shards' data only.
	Hist *hist.Histogram
	// Subs are the final sub-queries in path order, each summarised by the
	// count, exact sum and histogram of its samples. The router gathers the
	// samples shard by shard (in merged candidate order under a β cutoff),
	// which differs from the unsharded engine's probe order — an equal
	// multiset, so every statistic is identical.
	Subs []query.SubResult
	// MeanSeconds is Σ X̄_j, the paper's point prediction.
	MeanSeconds float64
	// IndexScans counts scatter-merged scan attempts (the sharded analogue
	// of the unsharded engine's per-attempt count).
	IndexScans int
	// CacheHits counts attempts answered from the shards' terminal memos
	// alone: at least one live shard read its memo and none read a column.
	// A memo reuse does not count as an index scan.
	CacheHits int
	// Partial marks an answer computed without the Missing shards.
	Partial bool
	// Missing lists the shards (ascending) whose data the answer excludes.
	Missing []int
	// Restarts counts mid-query shard failures that forced the router to
	// re-run the query without the failed shard.
	Restarts int
	// Epoch is the sum of the snapshot epochs the answer read, over the
	// shards it covers: a cluster-wide publication counter, not a single
	// index version.
	Epoch uint64
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
}

// runState is one attempt at answering a query over a fixed live-shard set:
// the per-shard index snapshots pinned for the whole attempt (a concurrent
// Extend cannot shear the query across epochs within a shard) and the
// global time range they span.
type runState struct {
	live  []int        // participating shard indexes, ascending
	ixs   []*snt.Index // pinned snapshot per live entry
	tmax  int64
	epoch uint64 // sum of the pinned snapshots' epochs
}

// shardFailure marks a shard that failed mid-query; the router restarts the
// query without it.
type shardFailure struct {
	shard int
	err   error
}

func (f *shardFailure) Error() string {
	return fmt.Sprintf("sharded: shard %d failed: %v", f.shard, f.err)
}

func (f *shardFailure) Unwrap() error { return f.err }

// Query answers a travel-time query with the shared relaxation driver
// (query.Run) over a scatter source: every attempt the union census does
// not reject and every σL count fans out to the live shards. Under a β
// cutoff the per-shard candidates merge back into the exact global scan
// order (see mergeCands); without one the shards' sample statistics add
// up. Shards only ever execute bounded candidate scans, β-free scans and
// cardinality counts, so with every shard live the produced histogram,
// sub-queries and point estimate are bit-identical to the unsharded engine
// over the union of the stripes.
//
// Fault handling: shards known down are excluded up front; a shard that
// fails mid-flight (budget exhausted, fault injected, shed by a racing
// health transition) aborts the attempt and the query restarts without it,
// at most once per shard. The final result marks excluded shards in
// Missing with Partial set. Only when coverage falls below the configured
// floor — or the caller's own context expires — does the query fail.
func (c *Cluster) Query(ctx context.Context, q pathhist.Query) (*Result, error) {
	start := time.Now()
	if q.Exclude {
		// Trajectory ids are shard-local; a global exclusion id does not
		// identify anything. The serving layer never sends one.
		return nil, errors.New("sharded: trajectory exclusion is not supported in sharded mode")
	}

	var live, missing []int
	now := time.Now()
	for i, s := range c.shards {
		if s.health.participates(now) {
			live = append(live, i)
		} else {
			missing = append(missing, i)
			c.cfg.Counters.ShardsShed.Add(1)
		}
	}
	restarts := 0
	for {
		if float64(len(live)) < minCoverage*float64(len(c.shards)) {
			return nil, fmt.Errorf("%w: %d of %d shards live", ErrInsufficientCoverage, len(live), len(c.shards))
		}
		res, err := c.runOnce(ctx, q, live)
		if err == nil {
			res.Partial = len(missing) > 0
			if res.Partial {
				res.Missing = append([]int(nil), missing...)
				sort.Ints(res.Missing)
				c.cfg.Counters.PartialResponses.Add(1)
			}
			res.Restarts = restarts
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller's own deadline or cancellation: a restart cannot
			// help, and a partial answer was never computed.
			return nil, ctx.Err()
		}
		var sf *shardFailure
		if !errors.As(err, &sf) {
			return nil, err
		}
		live = slices.DeleteFunc(live, func(si int) bool { return si == sf.shard })
		missing = append(missing, sf.shard)
		restarts++
	}
}

// runOnce answers the query over one fixed live-shard set. A per-shard
// failure aborts the driver and surfaces as *shardFailure.
func (c *Cluster) runOnce(ctx context.Context, q pathhist.Query, live []int) (*Result, error) {
	rs := &runState{live: live, ixs: make([]*snt.Index, len(live))}
	for i, si := range live {
		ix, epoch := c.shards[si].eng.QueryEngine().Snapshot()
		rs.ixs[i] = ix
		rs.epoch += epoch
		if _, tmax := ix.TimeRange(); i == 0 || tmax > rs.tmax {
			rs.tmax = tmax
		}
	}
	spq, err := pathhist.StrictPathQuery(c.g, q, rs.tmax)
	if err != nil {
		return nil, err
	}
	res, err := query.Run(c.ladder, c.g, query.Source{
		Attempt: func(sub query.SPQ) (query.Outcome, error) { return c.scatterScan(ctx, rs, sub) },
		Count:   func(sub query.SPQ) (int, error) { return c.scatterCount(ctx, rs, sub) },
		TMax:    rs.tmax,
	}, spq)
	if err != nil {
		return nil, err
	}
	return &Result{Hist: res.Hist, Subs: res.Subs, MeanSeconds: res.PredictedMean(), IndexScans: res.IndexScans, CacheHits: res.CacheHits, Epoch: rs.epoch}, nil
}

// scatter fans one op out to every live shard concurrently, each run on its
// own scratch armed with the dispatch's context, and collects the per-shard
// outputs. A scan that observed its cancel channel is clipped and reported
// as the context's error. The first failing shard (lowest index, for
// determinism) surfaces as a *shardFailure.
func (c *Cluster) scatter(ctx context.Context, rs *runState, op func(ix *snt.Index, sc *snt.Scratch) scanOut) ([]scanOut, error) {
	outs := make([]scanOut, len(rs.live))
	errs := make([]error, len(rs.live))
	var wg sync.WaitGroup
	for i := range rs.live {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix := rs.ixs[i]
			outs[i], errs[i] = c.dispatch(ctx, c.shards[rs.live[i]], func(ctx context.Context) (scanOut, error) {
				sc := snt.AcquireScratch()
				defer snt.ReleaseScratch(sc)
				sc.SetCancel(ctx.Done())
				out := op(ix, sc)
				if sc.Canceled() {
					return scanOut{}, ctx.Err()
				}
				return out, nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, &shardFailure{shard: rs.live[i], err: err}
		}
	}
	return outs, nil
}

// taggedCand is a shard-local candidate lifted into the global order.
type taggedCand struct {
	shard int // position in rs.live (ascending shard index)
	c     snt.Cand
}

// scatterScan is the scatter source's attempt. A rung the union census
// rejects is answered without a dispatch. Without a β cutoff every shard
// summarises its own samples and the statistics add up (scatterStats);
// with one, every live shard scans its β-capped candidates, and admit
// applies the global β rule and the Procedure 5 decision ladder to them.
func (c *Cluster) scatterScan(ctx context.Context, rs *runState, q query.SPQ) (query.Outcome, error) {
	if snt.CannotReachAll(rs.ixs, q.Path, q.Interval, q.Beta) {
		// The census sum bounds the global count and it is below β: every
		// shard's scan together would fall short, so none is asked.
		return query.Outcome{}, nil
	}
	if q.Beta <= 0 {
		return c.scatterStats(ctx, rs, q)
	}
	outs, err := c.scatter(ctx, rs, func(ix *snt.Index, sc *snt.Scratch) scanOut {
		cands, anyData := ix.ScanCandidates(sc, q.Path, q.Interval, q.Filter, q.Beta)
		return scanOut{cands: cands, anyData: anyData}
	})
	if err != nil {
		return query.Outcome{}, err
	}
	xs, fallback := c.admit(outs, q)
	return query.OutcomeOf(xs, c.ladder.BucketWidth, fallback), nil
}

// scatterStats answers an attempt without a β cutoff. No sample is cut, so
// their order never matters and each shard returns only the statistics of
// its own samples; a shard's speed-limit fallback counts as no samples. The
// terminal [0, tmax] rung over one segment, most of these attempts, is
// answered from the shard index's terminal-fallback memo
// (snt.Index.WholeSegment), so a shard reads a segment's column at most
// once per snapshot; any other question, or a shard without the segment,
// runs the scan and summarises its scratch view (query.OutcomeOf). Either
// way the answer comes through the shard's dispatch, so failpoints, health,
// the budget and the restart path see every shard. Counts and sums add,
// and the histograms union exactly (hist.Union), so the merged outcome
// equals the one built from every shard's samples together. No sample
// anywhere gives the speed-limit fallback for a single segment and a
// failed attempt otherwise — admit's answer for β ≤ 0. The attempt is a
// memo reuse (Outcome.Cached) when at least one shard read its memo and no
// shard read a column, the unsharded engine's rule over the union of the
// stripes: a shard without the segment's records reads neither.
func (c *Cluster) scatterStats(ctx context.Context, rs *runState, q query.SPQ) (query.Outcome, error) {
	outs, err := c.scatter(ctx, rs, func(ix *snt.Index, sc *snt.Scratch) scanOut {
		if n, sum, h, filled, ok := ix.WholeSegment(q.Path, q.Interval, q.Filter, q.Beta, c.ladder.BucketWidth); ok {
			return scanOut{n: n, sum: sum, hist: h, memo: true, scanned: filled}
		}
		fx := ix.Frozen().Get(q.Path[0])
		scanned := len(q.Path) > 1 || fx != nil && fx.Len() > 0
		xs, fallback := ix.GetTravelTimesWith(sc, q.Path, q.Interval, q.Filter, 0)
		if fallback {
			return scanOut{scanned: scanned}
		}
		o := query.OutcomeOf(xs, c.ladder.BucketWidth, false)
		return scanOut{n: o.N, sum: o.Sum, hist: o.Hist, scanned: scanned}
	})
	if err != nil {
		return query.Outcome{}, err
	}
	var o query.Outcome
	parts := make([]*hist.Histogram, 0, len(outs))
	memoRead, scanned := false, false
	for _, out := range outs {
		o.N += out.n
		o.Sum += out.sum
		memoRead = memoRead || out.memo && !out.scanned
		scanned = scanned || out.scanned
		if out.hist != nil {
			parts = append(parts, out.hist)
		}
	}
	if o.N == 0 {
		if len(q.Path) == 1 {
			return query.OutcomeOf([]int{c.g.EstimateTTSeconds(q.Path[0])}, c.ladder.BucketWidth, true), nil
		}
		return query.Outcome{}, nil
	}
	o.Hist = hist.Union(parts...)
	o.Cached = memoRead && !scanned
	return o, nil
}

// admit turns the shards' candidate lists into the attempt's samples (none
// when the attempt fails) and the speed-limit fallback flag. It runs only
// for β > 0.
func (c *Cluster) admit(outs []scanOut, q query.SPQ) (xs []int, fallback bool) {
	anyData := false
	total := 0
	for _, o := range outs {
		anyData = anyData || o.anyData
		total += len(o.cands)
	}
	if !anyData {
		if len(q.Path) == 1 {
			// The Procedure 5 fallback: the segment occurs nowhere in any
			// shard's trajectory string; answer with the speed-limit
			// estimate.
			return []int{c.g.EstimateTTSeconds(q.Path[0])}, true
		}
		return nil, false
	}
	// total is the capped admitted count Σ_s min(count_s, β): because every
	// per-shard count is capped at the same β the global rule tests against,
	// total < β exactly when the true global count is below β.
	if total < q.Beta && q.Interval.IsPeriodic() {
		return nil, false
	}
	if len(q.Path) == 1 && total == 0 {
		return []int{c.g.EstimateTTSeconds(q.Path[0])}, true
	}
	// Every candidate carries its sample. The samples come out in shard
	// order, or merged order under a cutoff, not the unsharded scan's hit
	// order. The order is immaterial: an outcome keeps only their count,
	// exact sum and histogram. Only which candidates survive the cutoff
	// depends on order, so the global order is rebuilt only when the cutoff
	// drops some.
	xs = make([]int, 0, min(total, q.Beta))
	if total > q.Beta {
		for _, tc := range mergeCands(outs)[:q.Beta] {
			xs = append(xs, int(tc.c.X))
		}
		return xs, false
	}
	for _, o := range outs {
		for i := range o.cands {
			xs = append(xs, int(o.cands[i].X))
		}
	}
	return xs, false
}

// mergeCands re-establishes the global scan order over per-shard candidate
// lists. It runs only when a β cutoff applies — more than β candidates
// came back — so it sorts at most live·β of them. The global order of the
// equivalent unsharded index is (timestamp, global trajectory id)
// descending, the newest-first scan's; stripes are contiguous ascending id
// blocks and every ingested batch lands whole on one shard strictly after
// all indexed data (RouteIngest), so equal timestamps can only occur among
// base-stripe records — where global id order is exactly (shard, local id)
// lexicographic — and the comparator below is the global order.
func mergeCands(outs []scanOut) []taggedCand {
	n := 0
	for _, o := range outs {
		n += len(o.cands)
	}
	all := make([]taggedCand, 0, n)
	for si, o := range outs {
		for _, cd := range o.cands {
			all = append(all, taggedCand{shard: si, c: cd})
		}
	}
	slices.SortFunc(all, func(a, b taggedCand) int {
		if a.c.Ts != b.c.Ts {
			return cmp.Compare(b.c.Ts, a.c.Ts)
		}
		if a.shard != b.shard {
			return cmp.Compare(b.shard, a.shard)
		}
		return cmp.Compare(b.c.Traj, a.c.Traj)
	})
	return all
}

// scatterCount is the scatter source's σL probe: the sum of the shards'
// β-capped cardinality counts crosses β exactly when the true global count
// does, which is the only question the binary search asks.
func (c *Cluster) scatterCount(ctx context.Context, rs *runState, q query.SPQ) (int, error) {
	outs, err := c.scatter(ctx, rs, func(ix *snt.Index, sc *snt.Scratch) scanOut {
		return scanOut{n: ix.CountMatchesWith(sc, q.Path, q.Interval, q.Filter, q.Beta)}
	})
	total := 0
	for _, o := range outs {
		total += o.n
	}
	return total, err
}
