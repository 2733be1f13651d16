package sharded

import (
	"context"
	"errors"
	"strconv"
	"time"

	"pathhist/internal/failpoint"
	"pathhist/internal/hist"
	"pathhist/internal/snt"
)

// shardBudget is the per-dispatch deadline carved from the request
// context: a shard that cannot scan one sub-query within it is treated as
// failed for this query.
const shardBudget = 2 * time.Second

// scanOut is the result of one per-shard dispatch: a candidate scan (an
// attempt with a β cutoff), the statistics of every matching sample (an
// attempt without one), or a capped cardinality count (the σL splitter).
type scanOut struct {
	cands   []snt.Cand      // candidate scan: the β-capped candidates
	anyData bool            // candidate scan: the path occurs in the shard
	n       int             // statistics: the sample count; σL: the count
	sum     int64           // statistics: the samples' exact sum
	hist    *hist.Histogram // statistics: the samples' histogram (nil for none)
	memo    bool            // statistics: answered from the index's terminal-fallback memo
	scanned bool            // statistics: the shard read a column of its own (a memo fill or a scan)
}

// errShardShed marks a dispatch refused before issue because the shard's
// health state machine shed it. The router treats it like any other shard
// failure: the shard leaves this query's live set.
var errShardShed = errors.New("sharded: shard shed by health state")

// dispatch runs op once against one shard, inline on the calling scatter
// goroutine: the dispatch fault-injection sites, shed-before-dispatch via
// the shard's health machine, a deadline budget carved from the request
// context, then the attempt. Every outcome feeds the health machine, and a
// successful attempt's latency feeds the shard's latency ring (/statsz
// p99_ms). A failed attempt is not retried: the router restarts the query
// without the shard.
func (c *Cluster) dispatch(ctx context.Context, s *shard, op func(context.Context) (scanOut, error)) (scanOut, error) {
	for _, site := range s.dispatchSites {
		if err := failpoint.Inject(site); err != nil {
			return c.dispatchFailed(s, false, err)
		}
	}
	ok, probe := s.health.admit(time.Now())
	if !ok {
		c.cfg.Counters.ShardsShed.Add(1)
		return scanOut{}, errShardShed
	}
	c.cfg.Counters.ShardDispatches.Add(1)
	bctx, cancel := context.WithTimeout(ctx, shardBudget)
	defer cancel()
	start := time.Now()
	out, err := s.attempt(bctx, op)
	if err != nil {
		return c.dispatchFailed(s, probe, err)
	}
	s.lat.record(time.Since(start))
	s.health.success()
	return out, nil
}

// dispatchFailed books a dispatch failure into the shard's health machine
// and the counters and returns the error.
func (c *Cluster) dispatchFailed(s *shard, probe bool, err error) (scanOut, error) {
	s.health.failure(probe, time.Now())
	c.cfg.Counters.ShardFailures.Add(1)
	return scanOut{}, err
}

// attempt is the admitted part of a dispatch: the shard.slow and
// shard.down fault-injection sites fire here, under the budget, before op
// runs.
func (s *shard) attempt(ctx context.Context, op func(context.Context) (scanOut, error)) (scanOut, error) {
	for _, site := range s.attemptSites {
		if err := failpoint.Inject(site); err != nil {
			return scanOut{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return scanOut{}, err
	}
	return op(ctx)
}

// dispatchSites are the fault-injection sites at the top of shard si's
// dispatches, and attemptSites those of its attempts, in the order they
// fire: the bare name, then the shard's ("shard.down.1"). New builds them
// once, so a dispatch pays no string work while no injection is enabled.
func dispatchSites(si int) [2]string {
	return [2]string{failpoint.ShardDispatch, failpoint.ShardDispatch + "." + strconv.Itoa(si)}
}

func attemptSites(si int) [4]string {
	shard := "." + strconv.Itoa(si)
	return [4]string{
		failpoint.ShardSlow, failpoint.ShardSlow + shard,
		failpoint.ShardDown, failpoint.ShardDown + shard,
	}
}
