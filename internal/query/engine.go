package query

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/metrics"
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
	// Workers bounds the worker pool of the speculative parallel first
	// pass of TripQuery: 0 uses GOMAXPROCS, 1 forces the purely
	// sequential Procedure 6, larger values cap the pool. The result is
	// identical either way (see TripQuery).
	Workers int
	// DisableCache turns off the shared sub-result cache.
	DisableCache bool
	// CacheCapacity is the total number of cached sub-results
	// (DefaultCacheCapacity when 0).
	CacheCapacity int
	// DisableFullResultCache turns off the shared full-result cache, which
	// memoises the final convolved histogram per (path, interval, filter,
	// β) so repeated trips skip partitioning, scans and convolution.
	DisableFullResultCache bool
	// FullResultCacheCapacity is the total number of cached full results
	// (DefaultFullCacheCapacity when 0).
	FullResultCacheCapacity int
	// Compaction is the partition compaction policy. Auto-compaction runs
	// inside Extend — after the ingest epoch is published — whenever
	// Compaction.TriggerPartitions > 0 and the partition count reaches it;
	// the zero value disables auto-compaction (Engine.Compact can still be
	// called manually, ignoring the trigger).
	Compaction snt.CompactionPolicy
	// CompactInBackground moves auto-compaction off the ingest path: a
	// triggering Extend returns as soon as its batch is published and a
	// background goroutine runs the merge — the heavy preparation entirely
	// off the write lock (concurrent Extends proceed), only the cheap
	// apply-and-publish under it. A competing compaction (manual Compact)
	// stales the preparation, which re-bases against the newest snapshot.
	// The goroutine starts lazily on the first triggering Extend; Close
	// stops it.
	CompactInBackground bool
}

// snapshot is one published index state: the immutable index, the
// cardinality estimator built against it, and the epoch number that stamps
// every cache entry derived from it. A query loads one snapshot at entry
// and uses it throughout, so in-flight queries always see a consistent
// index even while Extend publishes a successor.
type snapshot struct {
	ix    *snt.Index
	est   *card.Estimator
	epoch uint64
}

// Engine processes travel-time queries against an SNT-index. An Engine is
// safe for concurrent use: the published index snapshot is immutable, all
// per-query scan state lives in pooled snt.Scratch buffers, and the shared
// caches are internally synchronised. Extend ingests a batch of newer
// trajectories without blocking readers: it builds a copy-on-write index
// snapshot and publishes it with an atomic pointer swap; queries already
// running finish against the epoch they started on, and epoch-stamped
// cache entries from older snapshots are dropped lazily on lookup.
type Engine struct {
	cfg Config
	// snap is the publication cell. It is a pointer so replica engines
	// (NewFollower) can share the primary's cell: every replica then
	// serves the exact snapshot the primary publishes, with zero epoch
	// skew — the property that makes replica answers bit-identical.
	snap  *atomic.Pointer[snapshot]
	extMu sync.Mutex // serialises the writers (Extend, Compact)
	cache *spqCache[subValue]
	full  *spqCache[fullValue]

	// follower marks a read-only replica sharing another engine's snap
	// cell: Extend and Compact refuse (ErrFollower), and no background
	// compactor ever starts. Caches are the replica's own.
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
	if !cfg.DisableCache {
		e.cache = newSubCache(cfg.CacheCapacity)
	}
	if !cfg.DisableFullResultCache {
		e.full = newFullCache(cfg.FullResultCacheCapacity)
	}
	return e
}

// ErrFollower is returned by the write paths of a follower engine.
var ErrFollower = errors.New("query: follower engine is read-only; write through the primary")

// NewFollower returns a read-only replica of primary: it shares primary's
// publication cell — every snapshot (and epoch) the primary publishes is
// visible to the follower at the same instant, so the two answer queries
// bit-identically at all times — but owns its caches, so concurrent read
// load spreads over per-replica cache locks instead of contending on one.
// Replicas over a snapshot mapping cost no index memory at all: the columns
// live once, in the shared mapping (or heap). Extend and Compact on a
// follower fail with ErrFollower; Close is safe and only ever stops state
// the follower owns (it has no background compactor).
func NewFollower(primary *Engine) *Engine {
	cfg := primary.cfg
	e := &Engine{cfg: cfg, snap: primary.snap, follower: true}
	if !cfg.DisableCache {
		e.cache = newSubCache(cfg.CacheCapacity)
	}
	if !cfg.DisableFullResultCache {
		e.full = newFullCache(cfg.FullResultCacheCapacity)
	}
	return e
}

// Follower reports whether the engine is a read-only replica.
func (e *Engine) Follower() bool { return e.follower }

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
// every publication — each successful non-empty Extend and each effective
// Compact (so a triggering auto-compacted ingest advances it by two).
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
// they loaded at entry; the epoch stamp keeps their cache writes from ever
// being served against the new index (and vice versa). Concurrent Extend
// calls are serialised internally; a failed or empty batch leaves the
// published snapshot unchanged.
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
	// already being served when the merge starts, and the compacted snapshot
	// is published as its own epoch. Queries never block either way. A
	// compaction failure is NOT an ingest failure — the batch is already
	// published and served, so reporting an error here would make callers
	// (and the /extend handler's reject counters) believe a served batch
	// was rejected; the fragmented layout simply lives on, counted in
	// CompactionFailures.
	if tp := e.cfg.Compaction.TriggerPartitions; tp > 0 && nix.NumPartitions() >= tp {
		if e.cfg.CompactInBackground {
			// Background mode: the ingest returns now; the merge runs off
			// the lock and publishes its own epoch when ready.
			e.kickCompactor()
		} else if _, err := e.compactLocked(e.cfg.Compaction); err != nil {
			e.compactFailures.Add(1)
		}
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
// it to exit; a merge already applying finishes publishing first. Close is
// idempotent, and the engine keeps serving queries afterwards — only
// background compaction stops. Callers that enabled CompactInBackground
// must Close the engine to avoid leaking its goroutine.
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

// compactorLoop serves kicks until Close.
func (e *Engine) compactorLoop(c *compactor) {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		e.backgroundCycle(c)
	}
}

// backgroundCycle drains the merge backlog: prepare the next chunk of work
// off the write lock — ingest and queries proceed — then apply and publish
// it under the lock (cheap: column remap and pointer swap). A preparation
// staled by a competing compaction is re-based by preparing again against
// the newest snapshot; concurrent Extends never stale it (they only append
// partitions, which the apply remaps on the fly). The cycle ends when the
// policy plans nothing — with MaxRuns set, each iteration merges one
// bounded chunk, so the lock is never held for a multi-merge stall.
func (e *Engine) backgroundCycle(c *compactor) {
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		sn := e.snap.Load()
		// The stop channel rides into the preparation so a Close during a
		// giant merge abandons it at the next chunk boundary instead of
		// building every remaining run first.
		prepared, err := sn.ix.PrepareCompactionStop(e.cfg.Compaction, c.stop)
		if err != nil {
			if errors.Is(err, snt.ErrCompactionAborted) {
				// Shutdown/drain, not a failure: the merge backlog simply
				// stays for the next process to pick up.
				return
			}
			e.compactFailures.Add(1)
			return
		}
		if prepared == nil {
			return
		}
		e.extMu.Lock()
		// The plan above ran against a possibly-stale snapshot; under extMu
		// the apply must re-base onto the latest publication, so this second
		// load is the point, not an accident.
		//lint:ignore snappin deliberate re-read under extMu: compaction plans lock-free and re-bases on the current snapshot before publishing
		cur := e.snap.Load()
		nix, stats, err := cur.ix.ApplyCompaction(prepared)
		if err != nil {
			e.extMu.Unlock()
			if errors.Is(err, snt.ErrCompactionStale) {
				continue // a competing compaction landed: re-base
			}
			e.compactFailures.Add(1)
			return
		}
		if nix != cur.ix {
			next := e.publishLocked(cur, nix)
			stats.Epoch = next.epoch
			e.compactions.Add(1)
			e.lastCompaction.Store(&stats)
		}
		e.extMu.Unlock()
	}
}

// publishLocked builds the snapshot for a new index (refreshing the
// estimator against it), publishes it as the next epoch and eagerly purges
// both caches of entries from other epochs. Callers hold extMu.
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
	e.cache.purgeStale(next.epoch)
	e.full.purgeStale(next.epoch)
	return next
}

// Compact merges temporal partitions per the configured policy, ignoring
// its partition-count trigger (a manual call is the trigger), and publishes
// the compacted index as a new epoch. Readers never block: compaction runs
// entirely off the serving path against the current snapshot, exactly like
// Extend, and queries in flight finish on the epoch they pinned. The
// returned stats report the merge; PartitionsBefore == PartitionsAfter
// means the policy found nothing to merge (no epoch was published).
func (e *Engine) Compact() (snt.CompactionStats, error) {
	if e.follower {
		return snt.CompactionStats{}, ErrFollower
	}
	e.extMu.Lock()
	defer e.extMu.Unlock()
	pol := e.cfg.Compaction
	pol.TriggerPartitions = -1
	return e.compactLocked(pol)
}

// compactLocked runs one compaction and publishes the result if anything
// merged. The returned stats carry the epoch of their own publication
// (IngestStats-style attribution: a racing writer cannot skew them), or
// the current epoch when nothing merged. Callers hold extMu.
func (e *Engine) compactLocked(pol snt.CompactionPolicy) (snt.CompactionStats, error) {
	sn := e.snap.Load()
	nix, stats, err := sn.ix.Compact(pol)
	if err != nil {
		return stats, err
	}
	if nix == sn.ix {
		stats.Epoch = sn.epoch
		return stats, nil
	}
	next := e.publishLocked(sn, nix)
	stats.Epoch = next.epoch
	e.compactions.Add(1)
	e.lastCompaction.Store(&stats)
	return stats, nil
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

// CompactionFailures counts auto-compactions that failed after their
// triggering ingest had already been published (the ingest itself
// succeeded; the fragmented layout lives on until the next trigger or a
// manual Compact).
func (e *Engine) CompactionFailures() int64 { return e.compactFailures.Load() }

// Cache reports the cumulative sub-result cache statistics.
func (e *Engine) Cache() CacheStats { return e.cache.Stats() }

// FullCache reports the cumulative full-result cache statistics.
func (e *Engine) FullCache() CacheStats { return e.full.Stats() }

// SubResult is one completed sub-query with its retrieved travel times.
// X and Hist may be shared with the engine's sub-result cache and with
// other Results; treat both as immutable.
type SubResult struct {
	Path     network.Path
	Interval snt.Interval // effective (shifted) interval that produced X
	Filter   snt.Filter
	X        []int
	Hist     *hist.Histogram
	Fallback bool // speed-limit estimate (no data at all)
}

// MeanX returns the exact sample mean X̄ of the sub-query (Section 5.3.1).
func (s *SubResult) MeanX() float64 { return metrics.MeanInt(s.X) }

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
	// CacheHits and CacheMisses count sub-query scans served by the
	// sub-result cache versus scans that had to reach the index (both
	// stay zero with the cache disabled; a cache hit does not count as an
	// index scan).
	CacheHits   int
	CacheMisses int
	// CacheInvalidations counts cached entries (sub-results or the full
	// result) this query found stamped with a different index epoch and
	// dropped — the lazy invalidation an Engine.Extend leaves behind.
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
// against one index snapshot: cardinality estimation first (Procedure 6
// semantics — never for terminal sub-queries, which have no β), then the
// census rejection of a window that cannot hold β records, then the
// sub-result cache (epoch-checked), then the Procedure 3-5 index scan.
// Attempts are deterministic given the snapshot and cache state; with the
// cache disabled they are fully deterministic, which is what makes
// speculative execution exact (see TripQuery).
func (e *Engine) attempt(sn *snapshot, q SPQ, sc *snt.Scratch) Outcome {
	if q.Beta > 0 && sn.est.Enabled() {
		if bhat, ok := sn.est.Estimate(q.Path, q.Interval, q.Filter); ok && bhat < float64(q.Beta) {
			return Outcome{Skipped: true}
		}
	}
	if sn.ix.CannotReach(q.Path, q.Interval, q.Beta) {
		// The census rejects the rung in a few adds; a failure is never
		// cached (cache.go), so the lookup could only miss.
		return Outcome{}
	}
	stale := false
	if e.cache != nil {
		v, ok, st := e.cache.get(q.Path, q.Interval, q.Filter, q.Beta, sn.epoch)
		if ok {
			return Outcome{X: v.xs, Hist: v.hist, Fallback: v.fallback, Cached: true}
		}
		stale = st
	}
	view, fallback := sn.ix.GetTravelTimesWith(sc, q.Path, q.Interval, q.Filter, q.Beta)
	if sc.Canceled() || len(view) == 0 {
		// A scan aborted mid-sweep (TripQueryCtx deadline) left a partial
		// view that must not be cached or trusted — the caller is aborting
		// the whole query. A scan that found nothing is not cached either
		// (cache.go): the outcome is inert both ways.
		return Outcome{Stale: stale}
	}
	xs := make([]int, len(view))
	copy(xs, view)
	hg := hist.FromSamples(xs, e.cfg.BucketWidth)
	if e.cache != nil {
		e.cache.put(q.Path, q.Interval, q.Filter, q.Beta, sn.epoch, subValue{xs: xs, hist: hg, fallback: fallback})
	}
	return Outcome{X: xs, Hist: hg, Fallback: fallback, Stale: stale}
}

// TripQuery is Procedure 6: partition, process with relaxation, convolve.
//
// A full-result cache sits above everything (unless disabled): repeated
// queries for the same (path, interval, filter, β) return the memoised
// convolved histogram and sub-queries directly, marked by Result.
// FullCacheHit. Entries are deterministic functions of the immutable
// index, so a hit is bit-identical to recomputation.
//
// Processing runs in two passes. A speculative parallel first pass issues
// every initial sub-query concurrently on a bounded worker pool, scanning
// with the un-shifted base interval (the shift-and-enlarge offsets of
// Section 4.2 depend on the preceding sub-queries' results and are unknown
// at that point). The sequential pass is the shared driver (Run's loop)
// over the engine's local source, which maintains the exact shift
// accumulators of the sequential algorithm; the source answers an attempt
// with the speculative outcome when the pre-pass asked exactly the same
// question (always true for the first sub-query, and for every initial
// sub-query of fixed-interval or shift-disabled queries) and scans
// otherwise. The driver never learns the pre-pass exists: attempts are
// deterministic, so an adopted outcome is the one a scan would have
// produced, and the Subs and Hist are identical to the purely sequential
// execution. With the cache disabled, IndexScans and EstimatorSkips are
// identical too; with it enabled, scan and hit/miss counts can vary run to
// run, because concurrent attempts race on shared cache entries (the
// retrieved values never differ — every entry is a deterministic function
// of the immutable index).
//
// Speculation trades CPU for latency: on a periodic query with
// shift-and-enlarge active, every accepted sub-query after the first
// shifts its successors' windows, so their speculative base-interval
// outcomes are discarded and re-scanned — extra parallel work, but the
// sequential replay bounds wall-clock at the purely sequential cost, and
// on warm repeats the speculative attempts resolve as cache hits. For
// fixed intervals or DisableShiftEnlarge every speculative outcome
// reconciles, and the pass is pure speedup.
func (e *Engine) TripQuery(q SPQ) Result {
	res, _ := e.TripQueryCtx(context.Background(), q)
	return res
}

// TripQueryCtx is TripQuery honouring context cancellation. The deadline is
// checked at every sub-query boundary and, inside the index scans, every
// few thousand records (snt.Scratch cancellation), so a pathological query
// stops within microseconds of its deadline instead of finishing a
// multi-second scan. A canceled query returns the zero Result and ctx.Err();
// nothing partial is ever written to the sub-result or full-result caches.
// With a background (non-cancelable) context the behaviour — including the
// produced Result, bit for bit — is exactly TripQuery's.
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
	initial := e.cfg.initialSubs(sn.ix.Graph(), q)
	var spec []Outcome
	if w := e.workers(); w > 1 && len(initial) > 1 {
		spec = e.speculate(sn, initial, w, done)
		if done != nil {
			if err := ctx.Err(); err != nil {
				// Workers canceled mid-scan leave partial outcomes behind;
				// none of them were cached, so dropping the slice is enough.
				return Result{}, err
			}
		}
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
			for i := range spec {
				if s := &initial[i]; samePath(sub.Path, s.path) && sub.Interval == s.base && sub.Beta == s.beta && sub.Filter == s.filter {
					// The speculative attempt asked exactly this, and
					// attempts are deterministic: adopt its outcome instead
					// of re-scanning.
					return spec[i], nil
				}
			}
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
	}, initial)
	if err != nil {
		return Result{}, err
	}
	res.Epoch = sn.epoch
	if staleFull {
		res.CacheInvalidations++
	}
	if e.cache != nil {
		// With the cache on, every scan that reached the index missed it first.
		res.CacheMisses = res.IndexScans
	}
	if e.full != nil && !sc.Canceled() {
		// Hist and Subs become shared with future hits; both are immutable
		// from here on (the final histogram is never recycled, and Subs'
		// samples/histograms are already shared through the sub-result
		// cache contract). A query that raced its own cancellation to the
		// finish line is complete and correct, but its last scan may have
		// been clipped — skip the memoisation rather than trust it.
		e.full.put(q.Path, q.Interval, q.Filter, q.Beta, sn.epoch, fullValue{hist: res.Hist, subs: res.Subs})
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// samePath reports whether two sub-paths are the same slice of the query
// path (sub-queries only ever re-slice it, so identity is equality).
func samePath(a, b network.Path) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// workers resolves the speculative pool bound.
func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// speculate is the parallel first pass: attempt every initial sub-query
// concurrently with its un-shifted base interval. Each worker holds one
// scratch for its whole batch, armed with the query's cancel channel: on
// cancellation the workers stop claiming sub-queries and abort their scans
// at the next poll, so the pool drains promptly and no goroutine outlives
// the deadline by more than one scan stride. The caller must discard the
// outcomes when the context was canceled — they may be partial.
func (e *Engine) speculate(sn *snapshot, initial []subQ, workers int, done <-chan struct{}) []Outcome {
	if workers > len(initial) {
		workers = len(initial)
	}
	out := make([]Outcome, len(initial))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := snt.AcquireScratch()
			defer snt.ReleaseScratch(sc)
			sc.SetCancel(done)
			for {
				if sc.Canceled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(initial) {
					return
				}
				out[i] = e.attempt(sn, initial[i].at(initial[i].base), sc)
			}
		}()
	}
	wg.Wait()
	return out
}
