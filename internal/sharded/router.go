package sharded

import (
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
// surviving coverage falls below Config.MinCoverage — the one condition
// under which the router fails a query instead of degrading to a partial
// answer (the serving layer maps it to 503).
var ErrInsufficientCoverage = errors.New("sharded: insufficient shard coverage")

// Result is a routed query's outcome: the unsharded Result's payload plus
// the partial-result contract fields.
type Result struct {
	// Hist is the convolved travel-time histogram. With Partial false it is
	// bit-identical to the unsharded engine's answer over the union of the
	// stripes; with Partial true it is the exact answer over the surviving
	// shards' data only.
	Hist *hist.Histogram
	// Subs are the final sub-queries in path order. For multi-segment
	// sub-paths the samples are in merged candidate order, which differs
	// from the unsharded engine's probe order — an equal multiset, so every
	// derived statistic (histogram, mean, quantiles) is identical.
	Subs []query.SubResult
	// MeanSeconds is Σ X̄_j, the paper's point prediction.
	MeanSeconds float64
	// IndexScans counts scatter-merged scan attempts (the sharded analogue
	// of the unsharded engine's per-attempt count).
	IndexScans int
	// Partial marks an answer computed without the Missing shards.
	Partial bool
	// Missing lists the shards (ascending) whose data the answer excludes.
	Missing []int
	// Restarts counts mid-query shard failures that forced the router to
	// re-run the query without the failed shard.
	Restarts int
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
}

// runState is one attempt at answering a query over a fixed live-shard set:
// the per-shard index snapshots pinned for the whole attempt (a concurrent
// Extend cannot shear the query across epochs within a shard) and the
// global time range they span.
type runState struct {
	live []int        // participating shard indexes, ascending
	ixs  []*snt.Index // pinned snapshot per live entry
	tmax int64
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
// (query.Run) over a scatter source: every attempt and every σL count fans
// out to the live shards, and the per-shard candidates merge back into the
// exact global scan order (see mergeCands). Shards only ever execute bounded
// candidate scans and cardinality counts, so with every shard live the
// produced histogram, sub-queries and point estimate are bit-identical to
// the unsharded engine over the union of the stripes.
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
		if s.participates(now) {
			live = append(live, i)
		} else {
			missing = append(missing, i)
			c.cfg.Counters.ShardsShed.Add(1)
		}
	}
	restarts := 0
	for {
		if float64(len(live)) < c.cfg.MinCoverage*float64(len(c.shards)) {
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
		// Pinned from the primary; followers share the same published
		// snapshot pointer, so the pin is valid for whichever replica the
		// dispatcher picks.
		ix, _ := c.shards[si].primary().eng.QueryEngine().Snapshot()
		rs.ixs[i] = ix
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
	return &Result{Hist: res.Hist, Subs: res.Subs, MeanSeconds: res.PredictedMean(), IndexScans: res.IndexScans}, nil
}

// scatter fans one op out to every live shard concurrently, each run on its
// own scratch armed with the dispatch's context (a hedged second attempt is
// a second run), and collects the per-shard outputs. A scan that observed
// its cancel channel is clipped and reported as the context's error. The
// first failing shard (lowest index, for determinism) surfaces as a
// *shardFailure.
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

// scatterScan is the scatter source's attempt: scan every live shard's
// candidates, merge them into the global scan order, apply the global β
// cutoff and the Procedure 5 decision ladder, and reconstruct the
// travel-time samples.
func (c *Cluster) scatterScan(ctx context.Context, rs *runState, q query.SPQ) (query.Outcome, error) {
	outs, err := c.scatter(ctx, rs, func(ix *snt.Index, sc *snt.Scratch) scanOut {
		cands, anyData := ix.ScanCandidates(sc, q.Path, q.Interval, q.Filter, q.Beta)
		return scanOut{cands: cands, anyData: anyData}
	})
	if err != nil {
		return query.Outcome{}, err
	}
	xs, fallback := c.admit(outs, q)
	if len(xs) == 0 {
		return query.Outcome{}, nil
	}
	return query.Outcome{X: xs, Hist: hist.FromSamples(xs, c.ladder.BucketWidth), Fallback: fallback}, nil
}

// admit turns the shards' candidate lists into the attempt's samples (none
// when the attempt fails) and the speed-limit fallback flag.
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
	merged := mergeCands(outs, !c.cfg.Opts.OldestFirst)
	if q.Beta > 0 && len(merged) > q.Beta {
		merged = merged[:q.Beta]
	}
	if len(q.Path) == 1 {
		if len(merged) == 0 {
			return []int{c.g.EstimateTTSeconds(q.Path[0])}, true
		}
		// The unsharded scan emits single-segment samples in ascending time
		// order: the reverse of the newest-first merged order.
		xs = make([]int, 0, len(merged))
		for i := range merged {
			xs = append(xs, int(merged[i].c.X))
		}
		if !c.cfg.Opts.OldestFirst {
			slices.Reverse(xs)
		}
		return xs, false
	}
	for i := range merged {
		if merged[i].c.HasX {
			xs = append(xs, int(merged[i].c.X))
		}
	}
	return xs, false
}

// mergeCands re-establishes the global scan order over per-shard candidate
// lists. The global order of the equivalent unsharded index is (timestamp,
// global trajectory id), descending for newest-first scans; stripes are
// contiguous ascending id blocks and every ingested batch lands whole on
// one shard strictly after all indexed data (RouteIngest), so equal
// timestamps can only occur among base-stripe records — where global id
// order is exactly (shard, local id) lexicographic — and the comparator
// below is the global order.
func mergeCands(outs []scanOut, newestFirst bool) []taggedCand {
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
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if newestFirst {
			a, b = b, a
		}
		if a.c.Ts != b.c.Ts {
			return a.c.Ts < b.c.Ts
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.c.Traj < b.c.Traj
	})
	return all
}

// scatterCount is the scatter source's σL probe: the sum of the shards'
// β-capped cardinality counts crosses β exactly when the true global count
// does, which is the only question the binary search asks.
func (c *Cluster) scatterCount(ctx context.Context, rs *runState, q query.SPQ) (int, error) {
	outs, err := c.scatter(ctx, rs, func(ix *snt.Index, sc *snt.Scratch) scanOut {
		return scanOut{count: ix.CountMatchesWith(sc, q.Path, q.Interval, q.Filter, q.Beta)}
	})
	total := 0
	for _, o := range outs {
		total += o.count
	}
	return total, err
}
