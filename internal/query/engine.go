package query

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// Splitter selects the path splitting method σ of Section 3.3.
type Splitter int

// The two splitting methods.
const (
	SigmaR Splitter = iota // regular: cut in half
	SigmaL                 // longest prefix with |T^P1| >= β
)

func (s Splitter) String() string {
	if s == SigmaR {
		return "sigmaR"
	}
	return "sigmaL"
}

// DefaultAlphas is the interval-size list A of Section 5.2: 15, 30, 45, 60,
// 90 and 120 minutes.
var DefaultAlphas = []int64{15 * 60, 30 * 60, 45 * 60, 60 * 60, 90 * 60, 120 * 60}

// Config parameterises the query engine.
type Config struct {
	Partitioner Partitioner
	Splitter    Splitter
	// Alphas is the ascending list A of periodic interval sizes; Alphas[0]
	// is αmin and the last element αmax.
	Alphas []int64
	// BucketWidth is the travel-time histogram bucket width h in seconds.
	BucketWidth int
	// Estimator optionally pre-screens sub-queries (Section 4.4); nil or
	// mode Off disables estimation.
	Estimator *card.Estimator
	// ZoneBetas overrides the cardinality requirement β per initial
	// sub-query, keyed by the zone of the sub-path's first segment — the
	// extension named in the paper's outlook ("smaller sample size
	// requirements in rural zones"). Split children inherit their
	// parent's β.
	ZoneBetas map[network.Zone]int
	// DisableShiftEnlarge turns off the Dai-et-al periodic interval
	// adaptation of Section 4.2 (ablation support).
	DisableShiftEnlarge bool
	// DisableCache turns off the reads of the index's terminal-fallback
	// memo (snt.Index.WholeSegment): every sub-query attempt that gets
	// past the estimator and the census scans the index.
	DisableCache bool
	// DisableFullResultCache turns off the shared full-result cache, which
	// memoises the final convolved histogram per (path, interval, filter,
	// β) so repeated trips skip partitioning, scans and convolution.
	DisableFullResultCache bool
	// Compaction is the partition compaction policy. Whenever
	// Compaction.TriggerPartitions > 0 and an Extend leaves the index with
	// at least that many partitions, the Extend wakes a background
	// compactor and returns; the compactor merges off the write lock and
	// publishes each merge as its own epoch (Engine.merge). The zero value
	// disables auto-compaction; Engine.Compact can still be called
	// manually, ignoring the trigger.
	Compaction snt.CompactionPolicy
}

// snapshot is one published index state: the immutable index, the
// cardinality estimator built against it, and the epoch number that stamps
// every full-result cache entry derived from it. A query loads one snapshot
// at entry and uses it throughout, so in-flight queries always see a
// consistent index even while Extend publishes a successor.
type snapshot struct {
	ix    *snt.Index
	est   *card.Estimator
	epoch uint64
}

// Engine processes travel-time queries against an SNT-index. An Engine is
// safe for concurrent use: the published index snapshot is immutable, all
// per-query scan state lives in pooled snt.Scratch buffers, and the shared
// full-result cache is internally synchronised. Extend ingests a batch of
// newer trajectories without blocking readers: it builds a copy-on-write
// index snapshot and publishes it with an atomic pointer swap; queries
// already running finish against the epoch they started on, and
// epoch-stamped cache entries from older snapshots are dropped lazily on
// lookup.
type Engine struct {
	cfg Config
	// snap is the publication cell. It is a pointer so replica engines
	// (NewFollower) can share the primary's cell: every replica then
	// serves the exact snapshot the primary publishes, with zero epoch
	// skew — the property that makes replica answers bit-identical.
	snap  *atomic.Pointer[snapshot]
	extMu sync.Mutex // serialises the writers (Extend, Compact)
	full  *spqCache

	// memoHits and memoMisses are Cache's counters: the per-Result
	// CacheHits and CacheMisses summed over completed queries.
	memoHits, memoMisses atomic.Int64

	// follower marks a read-only replica sharing another engine's snap
	// cell: Extend and Compact refuse (ErrFollower), and no background
	// compactor ever starts. The full-result cache and the memo
	// counters are the replica's own.
	follower bool

	compactions     atomic.Int64
	compactFailures atomic.Int64
	lastCompaction  atomic.Pointer[snt.CompactionStats]

	bgMu   sync.Mutex // guards bg and closed
	bg     *compactor
	closed bool
}

// compactor is the background-compaction goroutine's handle: a kick channel
// (buffered 1, so a burst of triggering Extends coalesces into one wake-up),
// a stop signal, and a done ack for Close.
type compactor struct {
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewEngine returns an engine. Zero-value config fields get defaults
// (σR, πZ is NOT defaulted — the partitioner must be chosen consciously;
// Alphas default to the paper's list; bucket width defaults to 10 s).
func NewEngine(ix *snt.Index, cfg Config) *Engine {
	return NewEngineAt(ix, cfg, 0)
}

// NewEngineAt is NewEngine for a restored index: the first published
// snapshot carries the given epoch instead of 0, so an engine rebuilt from
// an on-disk snapshot republishes the exact epoch the snapshot was written
// at. Epoch-stamped cache semantics then survive the restart — the caches
// start empty either way, but the epoch counter keeps advancing from where
// the writing engine left it, so epochs stay monotonic across process
// generations and clients correlating /statsz epochs never see the counter
// jump backwards.
func NewEngineAt(ix *snt.Index, cfg Config, epoch uint64) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{cfg: cfg, snap: new(atomic.Pointer[snapshot])}
	e.snap.Store(&snapshot{ix: ix, est: cfg.Estimator, epoch: epoch})
	e.makeCaches()
	return e
}

// makeCaches builds the full-result cache unless the configuration
// disables it, at DefaultFullCacheCapacity.
func (e *Engine) makeCaches() {
	if !e.cfg.DisableFullResultCache {
		e.full = newSPQCache(DefaultFullCacheCapacity)
	}
}

// ErrFollower is returned by the write paths of a follower engine.
var ErrFollower = errors.New("query: follower engine is read-only; write through the primary")

// NewFollower returns a read-only replica of primary: it shares primary's
// publication cell — every snapshot (and epoch) the primary publishes is
// visible to the follower at the same instant, so the two answer queries
// bit-identically at all times — but owns its full-result cache, so
// concurrent read load spreads over per-replica cache locks instead of
// contending on one.
// Replicas over a snapshot mapping cost no index memory at all: the columns
// live once, in the shared mapping (or heap). Extend and Compact on a
// follower fail with ErrFollower; Close is safe and only ever stops state
// the follower owns (it has no background compactor). It exists for
// pathhist's Engine.Replica, a benchmark shim; serving code does not use it.
func NewFollower(primary *Engine) *Engine {
	e := &Engine{cfg: primary.cfg, snap: primary.snap, follower: true}
	e.makeCaches()
	return e
}

// Snapshot returns the currently published (index, epoch) pair as one
// consistent unit — what a persistence layer must capture together so the
// restored engine serves the same index at the same epoch. The index is
// immutable; the pair stays valid (and snapshot-able) even while later
// Extends publish successors.
func (e *Engine) Snapshot() (*snt.Index, uint64) {
	sn := e.snap.Load()
	return sn.ix, sn.epoch
}

// Index returns the currently published index snapshot.
func (e *Engine) Index() *snt.Index { return e.snap.Load().ix }

// Epoch returns the current index epoch: 0 after NewEngine, incremented by
// every publication — each successful non-empty Extend and each merge that
// changed the layout (manual Compact or the background compactor).
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// IngestStats describes the snapshot one Extend published. The values come
// from that publication, not from re-reading shared engine state, so they
// stay attributable to the batch even when further Extends race in right
// after.
type IngestStats struct {
	// Epoch the batch was published as (unchanged for an empty batch).
	Epoch uint64
	// Trajectories in the ingested batch.
	Trajectories int
	// TotalTrajectories indexed after this publication.
	TotalTrajectories int
}

// Extend ingests a batch of newer trajectories (snt.Index.Extend semantics:
// every trajectory must start after the indexed data ends). Readers never
// block: the extended index is built copy-on-write next to the serving one
// and published atomically as a new epoch, together with a refreshed
// cardinality estimator. Queries in flight complete against the snapshot
// they loaded at entry; the epoch stamp keeps their full-result cache
// writes from ever being served against the new index (and vice versa).
// Concurrent Extend calls are serialised internally; a failed or empty
// batch leaves the published snapshot unchanged.
func (e *Engine) Extend(add *traj.Store) (IngestStats, error) {
	return e.ExtendCtx(context.Background(), add)
}

// ExtendCtx is Extend honouring a context deadline at its two cheap
// abort points: before taking the writer lock and after acquiring it (the
// wait for a slow competing writer may have consumed the whole deadline).
// The index build itself is not interruptible — once it starts, the batch
// is published; a context canceled mid-build still publishes, exactly like
// Extend, so callers never see a batch both acknowledged and absent.
func (e *Engine) ExtendCtx(ctx context.Context, add *traj.Store) (IngestStats, error) {
	if e.follower {
		return IngestStats{}, ErrFollower
	}
	if err := ctx.Err(); err != nil {
		return IngestStats{}, err
	}
	e.extMu.Lock()
	defer e.extMu.Unlock()
	if err := ctx.Err(); err != nil {
		return IngestStats{}, err
	}
	sn := e.snap.Load()
	nix, err := sn.ix.Extend(add)
	if err != nil {
		return IngestStats{}, err
	}
	if nix == sn.ix {
		// Empty batch: nothing new to publish.
		return IngestStats{Epoch: sn.epoch, TotalTrajectories: nix.Stats().Trajs}, nil
	}
	next := e.publishLocked(sn, nix)
	st := IngestStats{
		Epoch:             next.epoch,
		Trajectories:      add.Len(),
		TotalTrajectories: nix.Stats().Trajs,
	}
	// Auto-compaction rides behind the ingest publication: the batch is
	// already being served, the Extend returns now, and the background
	// compactor merges off the lock and publishes its own epoch.
	if tp := e.cfg.Compaction.TriggerPartitions; tp > 0 && nix.NumPartitions() >= tp {
		e.kickCompactor()
	}
	return st, nil
}

// kickCompactor wakes (lazily starting) the background compactor. The kick
// is non-blocking: if one is already pending, the running cycle will see the
// newest snapshot anyway.
func (e *Engine) kickCompactor() {
	e.bgMu.Lock()
	if e.closed {
		e.bgMu.Unlock()
		return
	}
	if e.bg == nil {
		e.bg = &compactor{
			kick: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		go e.compactorLoop(e.bg)
	}
	c := e.bg
	e.bgMu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Close stops the background compactor (if one ever started) and waits for
// it to exit; a merge in preparation is abandoned at its next run boundary
// and a merge already applying finishes publishing first. Close is
// idempotent, and the engine keeps serving queries afterwards — only
// background compaction stops. An engine whose Compaction.TriggerPartitions
// is positive starts the compactor on its first triggering Extend and must
// be Closed to stop that goroutine.
func (e *Engine) Close() {
	e.bgMu.Lock()
	c := e.bg
	e.bg = nil
	e.closed = true
	e.bgMu.Unlock()
	if c != nil {
		close(c.stop)
		<-c.done
	}
}

// compactorLoop serves kicks until Close. Each kick drains the merge
// backlog: merge again until the policy plans nothing. A failed merge is
// NOT an ingest failure — the triggering batch is already published and
// served — so it is only counted in CompactionFailures and the fragmented
// layout lives on until the next kick; an abort is Close, not a failure,
// and the backlog stays for the next process.
func (e *Engine) compactorLoop(c *compactor) {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		for {
			st, err := e.merge(e.cfg.Compaction, c.stop)
			if err != nil && !errors.Is(err, snt.ErrCompactionAborted) {
				e.compactFailures.Add(1)
			}
			if err != nil || st.Runs == 0 {
				break
			}
		}
	}
}

// merge is the engine's one compaction routine. It prepares the merge
// against the published snapshot with no lock held — ingest and queries
// proceed — then takes extMu, applies the preparation onto the snapshot
// current by then (partitions an Extend appended meanwhile carry over
// unmerged) and publishes it as its own epoch. A preparation staled by a
// competing merge is prepared again against the newest snapshot. A closed
// stop abandons the preparation at its next run boundary
// (snt.ErrCompactionAborted). The returned stats carry the epoch of their
// own publication, or the current epoch when the policy planned nothing
// (Runs == 0).
func (e *Engine) merge(pol snt.CompactionPolicy, stop <-chan struct{}) (snt.CompactionStats, error) {
	for {
		prepared, err := e.snap.Load().ix.PrepareCompaction(pol, stop)
		if err != nil {
			return snt.CompactionStats{}, err
		}
		e.extMu.Lock()
		// The plan above ran against a possibly-stale snapshot; under extMu
		// the apply must re-base onto the latest publication, so this second
		// load is the point, not an accident.
		//lint:ignore snappin deliberate re-read under extMu: compaction plans lock-free and re-bases on the current snapshot before publishing
		cur := e.snap.Load()
		nix, stats, err := cur.ix.ApplyCompaction(prepared)
		if errors.Is(err, snt.ErrCompactionStale) {
			e.extMu.Unlock()
			continue
		}
		stats.Epoch = cur.epoch
		if err == nil && nix != cur.ix {
			stats.Epoch = e.publishLocked(cur, nix).epoch
			e.compactions.Add(1)
			e.lastCompaction.Store(&stats)
		}
		e.extMu.Unlock()
		return stats, err
	}
}

// publishLocked builds the snapshot for a new index (refreshing the
// estimator against it), publishes it as the next epoch and eagerly purges
// the full-result cache of entries from other epochs. Callers hold extMu.
func (e *Engine) publishLocked(sn *snapshot, nix *snt.Index) *snapshot {
	est := sn.est
	if est.Enabled() {
		// The estimator reads the index it was built against; refresh it so
		// selectivities cover the new layout.
		est = card.New(nix, est.Mode())
	}
	next := &snapshot{ix: nix, est: est, epoch: sn.epoch + 1}
	e.snap.Store(next)
	// Entries stamped with older epochs can never be served again (the
	// lazy cross-epoch check would drop them one by one); sweep them now so
	// the memory is released immediately and post-publication queries find
	// room for fresh results instead of a cache full of dead facts.
	e.full.purgeStale(next.epoch)
	return next
}

// Compact merges temporal partitions per the configured policy, ignoring
// its partition-count trigger (a manual call is the trigger), and publishes
// the compacted index as a new epoch. It runs the same merge as the
// background compactor: readers never block, and Extends are held up only
// by the cheap apply-and-publish, not by the preparation. Partitions an
// Extend appends while the merge prepares stay unmerged, so the result
// may hold more than one partition even under the unbounded policy. The
// returned stats report the merge; PartitionsBefore == PartitionsAfter
// means the policy found nothing to merge (no epoch was published).
func (e *Engine) Compact() (snt.CompactionStats, error) {
	if e.follower {
		return snt.CompactionStats{}, ErrFollower
	}
	pol := e.cfg.Compaction
	pol.TriggerPartitions = -1
	return e.merge(pol, nil)
}

// CompactionInfo reports how many compactions the engine has published and
// the stats of the most recent one (zero value when none ran yet).
func (e *Engine) CompactionInfo() (int64, snt.CompactionStats) {
	n := e.compactions.Load()
	if st := e.lastCompaction.Load(); st != nil {
		return n, *st
	}
	return n, snt.CompactionStats{}
}

// CompactionFailures counts background merges that failed after their
// triggering ingest had already been published (the ingest itself
// succeeded; the fragmented layout lives on until the next trigger or a
// manual Compact).
func (e *Engine) CompactionFailures() int64 { return e.compactFailures.Load() }

// Cache reports the cumulative terminal-fallback memo statistics: memo
// reuses as Hits, scans that reached the index as Misses (both zero with
// the cache disabled).
func (e *Engine) Cache() CacheStats {
	return CacheStats{Hits: e.memoHits.Load(), Misses: e.memoMisses.Load()}
}

// FullCache reports the cumulative full-result cache statistics.
func (e *Engine) FullCache() CacheStats { return e.full.Stats() }

// SubResult is one completed sub-query, summarised by the sufficient
// statistics of its retrieved travel times: the sample count N, their exact
// sum and their histogram. Hist may be shared with the terminal-fallback
// memo, the full-result cache and other Results; treat it as immutable.
type SubResult struct {
	Path     network.Path
	Interval snt.Interval // effective (shifted) interval that produced the samples
	Filter   snt.Filter
	N        int   // number of retrieved samples
	Sum      int64 // their sum in seconds
	Hist     *hist.Histogram
	Fallback bool // speed-limit estimate (no data at all)
}

// MeanX returns the exact sample mean X̄ of the sub-query (Section 5.3.1),
// 0 for no samples, in O(1).
//
// It has the bits of the in-order float mean over the samples, which adds
// float64(x) in order and divides by the count: every sample is an
// integer and every partial sum stays below 2⁵³ (2²⁰ samples of a full day,
// 86 399 s, sum to under 2³⁷), so each of those additions is exact, the
// float sum equals float64(Sum), and the one rounding left is the division,
// the same here as there.
func (s *SubResult) MeanX() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Result is the outcome of a travel-time query.
type Result struct {
	// Hist is the convolved travel-time histogram H = H1 * ... * Hk.
	Hist *hist.Histogram
	// Subs are the final sub-queries in path order (they partition the
	// query path).
	Subs []SubResult
	// IndexScans counts getTravelTimes invocations that reached the index.
	IndexScans int
	// EstimatorSkips counts sub-queries relaxed on the estimate alone.
	EstimatorSkips int
	// CacheHits and CacheMisses count sub-query attempts answered by the
	// index's terminal-fallback memo versus scans that had to reach the
	// index (both stay zero with the cache disabled; a memo reuse does not
	// count as an index scan).
	CacheHits   int
	CacheMisses int
	// CacheInvalidations counts full-result cache entries this query found
	// stamped with a different index epoch and dropped — the lazy
	// invalidation a query racing an Engine.Extend leaves behind.
	CacheInvalidations int
	// FullCacheHit marks a result served whole from the full-result cache:
	// Hist and Subs are the memoised outcome of an earlier identical query
	// and every other effort counter is zero.
	FullCacheHit bool
	// Epoch is the index epoch the query ran against (the snapshot loaded
	// at TripQuery entry).
	Epoch uint64
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
}

// AvgSubPathLen returns the average final sub-query path length (Figure 7).
func (r *Result) AvgSubPathLen() float64 {
	if len(r.Subs) == 0 {
		return 0
	}
	n := 0
	for i := range r.Subs {
		n += len(r.Subs[i].Path)
	}
	return float64(n) / float64(len(r.Subs))
}

// PredictedMean returns Σ X̄_j, the paper's point prediction for the full
// path (Section 5.3.1).
func (r *Result) PredictedMean() float64 {
	var s float64
	for i := range r.Subs {
		s += r.Subs[i].MeanX()
	}
	return s
}

// attempt answers one strict path query (its Interval the effective one)
// against one index snapshot, asking in order:
//
//  1. the cardinality estimator (Procedure 6 semantics — never for
//     terminal sub-queries, which have no β);
//  2. the census rejection of a window that cannot hold β records;
//  3. with the cache enabled, the snapshot's terminal-fallback memo
//     (snt.Index.WholeSegment), which answers the whole-segment [0, tmax]
//     rung: a fill books as an index scan and a cache miss, a reuse as a
//     cache hit;
//  4. the Procedure 3-5 index scan.
//
// Attempts are deterministic: the memo's answer is the scan's.
func (e *Engine) attempt(sn *snapshot, q SPQ, sc *snt.Scratch) Outcome {
	if q.Beta > 0 && sn.est.Enabled() {
		if bhat, ok := sn.est.Estimate(q.Path, q.Interval, q.Filter); ok && bhat < float64(q.Beta) {
			return Outcome{Skipped: true}
		}
	}
	if sn.ix.CannotReach(q.Path, q.Interval, q.Beta) {
		// The census rejects the rung in a few adds.
		return Outcome{}
	}
	if !e.cfg.DisableCache {
		if n, sum, h, filled, ok := sn.ix.WholeSegment(q.Path, q.Interval, q.Filter, q.Beta, e.cfg.BucketWidth); ok {
			return Outcome{N: n, Sum: sum, Hist: h, Cached: !filled}
		}
	}
	// A scan aborted mid-sweep (TripQueryCtx deadline) leaves a partial
	// view; the caller sees the cancellation and discards the outcome.
	view, fallback := sn.ix.GetTravelTimesWith(sc, q.Path, q.Interval, q.Filter, q.Beta)
	return OutcomeOf(view, e.cfg.BucketWidth, fallback)
}

// TripQuery is Procedure 6: partition, process with relaxation, convolve.
//
// A full-result cache sits above everything (unless disabled): repeated
// queries for the same (path, interval, filter, β) return the memoised
// convolved histogram and sub-queries directly, marked by Result.
// FullCacheHit. Entries are deterministic functions of the immutable
// index, so a hit is bit-identical to recomputation.
//
// Processing is the shared driver (Run's loop) over the engine's local
// source: the initial sub-queries are attempted one at a time in path order,
// because the shift-and-enlarge offsets of Section 4.2 that set each
// sub-query's window come from the results before it. Attempts are
// deterministic, so Subs and Hist do not depend on memo state or on other
// queries running concurrently; with the cache disabled, IndexScans and
// EstimatorSkips do not either. With it enabled, concurrent queries race to
// fill the terminal memo, so scan and hit/miss counts can vary run to run
// (the retrieved values never differ — a memo answer is the scan's).
func (e *Engine) TripQuery(q SPQ) Result {
	res, _ := e.TripQueryCtx(context.Background(), q)
	return res
}

// TripQueryCtx is TripQuery honouring context cancellation. The deadline is
// checked at every sub-query boundary and, inside the index scans, every
// few thousand records (snt.Scratch cancellation), so a pathological query
// stops within microseconds of its deadline instead of finishing a
// multi-second scan. A canceled query returns the zero Result and ctx.Err();
// nothing partial is ever written to the full-result cache or the memo
// counters. With a background (non-cancelable) context the behaviour —
// including the produced Result, bit for bit — is exactly TripQuery's.
func (e *Engine) TripQueryCtx(ctx context.Context, q SPQ) (Result, error) {
	start := time.Now()
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	// One snapshot per query: everything below — estimator, scans, cache
	// stamps — reads this snapshot, so a concurrent Extend cannot shear a
	// query across epochs.
	sn := e.snap.Load()
	staleFull := false
	// The full-result cache short-circuits everything: a whole trip's final
	// histogram and sub-queries are a deterministic function of the
	// snapshot's immutable index and the query key, so an (epoch-matched)
	// hit returns the memoised (shared, immutable) outcome with no
	// partitioning, scans or convolution.
	if e.full != nil {
		v, ok, stale := e.full.get(q.Path, q.Interval, q.Filter, q.Beta, sn.epoch)
		if ok {
			return Result{Hist: v.hist, Subs: v.subs, FullCacheHit: true, Epoch: sn.epoch, Elapsed: time.Since(start)}, nil
		}
		staleFull = stale
		// The final Subs hold sub-paths sliced out of q.Path and are about
		// to be retained engine-lifetime in the cache: rebind the query to
		// a private copy so no cached result ever aliases caller memory.
		q.Path = append(network.Path(nil), q.Path...)
	}
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc) // also disarms the cancel channel
	sc.SetCancel(done)
	_, tmax := sn.ix.TimeRange()
	// The local source: every question goes to the pinned snapshot on this
	// query's scratch. A scan or count that observed the cancel channel
	// returned untrustworthy (possibly clipped) output, so it surfaces as
	// the context's error and the driver aborts the whole query.
	res, err := e.cfg.run(Source{
		Attempt: func(sub SPQ) (Outcome, error) {
			o := e.attempt(sn, sub, sc)
			if sc.Canceled() {
				return Outcome{}, ctx.Err()
			}
			return o, nil
		},
		Count: func(sub SPQ) (int, error) {
			n := sn.ix.CountMatchesWith(sc, sub.Path, sub.Interval, sub.Filter, sub.Beta)
			if sc.Canceled() {
				return 0, ctx.Err()
			}
			return n, nil
		},
		TMax: tmax,
	}, e.cfg.initialSubs(sn.ix.Graph(), q))
	if err != nil {
		return Result{}, err
	}
	res.Epoch = sn.epoch
	if staleFull {
		res.CacheInvalidations++
	}
	if !e.cfg.DisableCache {
		// With the cache on, every scan that reached the index missed the
		// memo first.
		res.CacheMisses = res.IndexScans
		e.memoHits.Add(int64(res.CacheHits))
		e.memoMisses.Add(int64(res.CacheMisses))
	}
	if e.full != nil && !sc.Canceled() {
		// Hist and Subs become shared with future hits; both are immutable
		// from here on (the final histogram is never recycled, and Subs'
		// histograms may already be the terminal memo's). A query that
		// raced its own cancellation to the finish line is complete and
		// correct, but its last scan may have been clipped — skip the
		// memoisation rather than trust it.
		e.full.put(q.Path, q.Interval, q.Filter, q.Beta, sn.epoch, fullValue{hist: res.Hist, subs: res.Subs})
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
