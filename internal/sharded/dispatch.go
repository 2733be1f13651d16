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

// scanOut is the result of one per-shard dispatch: a candidate scan (an
// attempt with a β cutoff), the statistics of every matching sample (an
// attempt without one), or a capped cardinality count (the σL splitter).
type scanOut struct {
	cands   []snt.Cand      // candidate scan: the β-capped candidates
	anyData bool            // candidate scan: the path occurs in the shard
	n       int             // statistics: the sample count; σL: the count
	sum     int64           // statistics: the samples' exact sum
	hist    *hist.Histogram // statistics: the samples' histogram (nil for none)
}

// errShardShed marks a dispatch refused before issue because every replica's
// health state machine shed it. The router treats it like any other shard
// failure: the shard leaves this query's live set.
var errShardShed = errors.New("sharded: shard shed by health state")

// dispatch runs op against one shard with the full fault-tolerance
// treatment: fault-injection sites, shed-before-dispatch via the per-replica
// health machines, a deadline budget carved from the request context, and a
// hedged second attempt after a p99-based delay (first answer wins). The
// first attempt goes to the next admitting replica round-robin; the hedge
// goes to a different admitting replica when the set has one (falling back
// to the same replica otherwise), so a replica stuck in a slow attempt is
// not also the one asked to bail it out. Every outcome feeds the attempted
// replica's own health machine, and a successful attempt's latency feeds
// that replica's hedge-delay estimate.
//
// op must be safe to run twice concurrently (the hedge); the router's ops
// scan immutable index snapshots with private scratch state, which is. All
// replicas of a shard share the primary's published snapshot pointer, so the
// answer is bit-identical regardless of which replica serves it.
func (c *Cluster) dispatch(ctx context.Context, s *shard, op func(context.Context) (scanOut, error)) (scanOut, error) {
	for _, site := range s.dispatchSites {
		if err := failpoint.Inject(site); err != nil {
			return c.dispatchFailed(s.primary(), false, err)
		}
	}
	first, probe, ok := s.pickReplica(time.Now(), nil)
	if !ok {
		c.cfg.Counters.ShardsShed.Add(1)
		return scanOut{}, errShardShed
	}
	c.cfg.Counters.ShardDispatches.Add(1)
	bctx, cancel := context.WithTimeout(ctx, c.cfg.ShardBudget)
	defer cancel()
	start := time.Now()
	// Buffered so attempts outlasting the dispatch (budget exhausted, or the
	// other attempt won) can deliver and exit without a receiver.
	f := &flight{ctx: bctx, op: op, reps: [2]*replica{first}, done: make(chan uint8, 2)}
	probes := [2]bool{probe}
	go f.run(0)
	timer := time.NewTimer(first.hedgeDelay(c.cfg.HedgeDelay))
	defer timer.Stop()
	pending, hedged := 1, false
	// booked keeps a replica from absorbing two health failures for one
	// dispatch when both attempts land on it (single-replica shards).
	booked := map[*replica]bool{}
	hedge := func() {
		hedged = true
		pending++
		c.cfg.Counters.HedgedDispatches.Add(1)
		r, hprobe, ok := s.pickReplica(time.Now(), first)
		if !ok {
			r, hprobe = first, false
		}
		if r != first {
			c.cfg.Counters.CrossReplicaHedges.Add(1)
		}
		f.reps[1], probes[1] = r, hprobe
		go f.run(1)
	}
	var lastErr error
	for {
		select {
		case k := <-f.done:
			pending--
			res, rep := &f.res[k], f.reps[k]
			if res.err == nil {
				rep.lat.record(time.Since(start))
				rep.health.success()
				if k == 1 && pending > 0 {
					c.cfg.Counters.HedgeWins.Add(1)
				}
				return res.out, nil
			}
			if !booked[rep] {
				booked[rep] = true
				rep.health.failure(probes[k], c.cfg.FailThreshold, c.cfg.ProbeInterval, time.Now())
			}
			lastErr = res.err
			if !hedged {
				// The first attempt failed before the hedge timer: retry
				// immediately instead of waiting out the delay.
				hedge()
				continue
			}
			if pending == 0 {
				c.cfg.Counters.ShardFailures.Add(1)
				return scanOut{}, lastErr
			}
		case <-timer.C:
			if !hedged {
				hedge()
			}
		case <-bctx.Done():
			// Budget exhausted (or the caller gave up): in-flight attempts
			// observe the cancellation through their scratch polls and drain
			// into the buffered channel on their own. The failure is booked
			// on the first replica — it is the one that sat on the budget.
			if booked[first] {
				c.cfg.Counters.ShardFailures.Add(1)
				return scanOut{}, bctx.Err()
			}
			return c.dispatchFailed(first, probe, bctx.Err())
		}
	}
}

// flight is what one dispatch shares with its attempts. Attempt k (0 the
// first, 1 the hedge) runs on reps[k], writes res[k] and then sends k, so
// the channel carries one byte and the dispatcher reads a slot only after
// its attempt is done with it.
type flight struct {
	ctx  context.Context
	op   func(context.Context) (scanOut, error)
	reps [2]*replica
	res  [2]struct {
		out scanOut
		err error
	}
	done chan uint8
}

func (f *flight) run(k uint8) {
	f.res[k].out, f.res[k].err = attemptReplica(f.ctx, f.reps[k], f.op)
	f.done <- k
}

// dispatchFailed books a dispatch failure into the replica's health machine
// and the counters and returns the error.
func (c *Cluster) dispatchFailed(r *replica, probe bool, err error) (scanOut, error) {
	r.health.failure(probe, c.cfg.FailThreshold, c.cfg.ProbeInterval, time.Now())
	c.cfg.Counters.ShardFailures.Add(1)
	return scanOut{}, err
}

// attemptReplica is one attempt of a dispatch: the shard.slow and
// shard.down fault-injection sites fire here, inside the hedged region, so
// a Times-limited injection fails (or delays) the first attempt and lets
// the hedge succeed. Each site also has a per-shard form ("shard.down.1")
// and a per-replica form ("shard.slow.1.0" is shard 1, replica 0), which is
// how tests pin a fault to one replica and assert the cross-replica hedge
// rescues the dispatch.
func attemptReplica(ctx context.Context, r *replica, op func(context.Context) (scanOut, error)) (scanOut, error) {
	for _, site := range r.attemptSites {
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
// dispatches, and attemptSites those of each attempt on its replica ri, in
// the order they fire: the bare name, then the shard's, then the
// replica's. New builds them once, so a dispatch pays no string work while
// no injection is enabled.
func dispatchSites(si int) [2]string {
	return [2]string{failpoint.ShardDispatch, failpoint.ShardDispatch + "." + strconv.Itoa(si)}
}

func attemptSites(si, ri int) [6]string {
	shard := "." + strconv.Itoa(si)
	rep := shard + "." + strconv.Itoa(ri)
	return [6]string{
		failpoint.ShardSlow, failpoint.ShardSlow + shard, failpoint.ShardSlow + rep,
		failpoint.ShardDown, failpoint.ShardDown + shard, failpoint.ShardDown + rep,
	}
}
