// Package pathhist is a library for online travel-time histogram retrieval
// over network-constrained trajectories, reproducing Waury, Jensen, Koide,
// Ishikawa and Xiao: "Indexing Trajectories for Travel-Time Histogram
// Retrieval" (EDBT 2019).
//
// Given a road network and a set of map-matched trajectories, an Engine
// answers travel-time queries for arbitrary paths: the path is partitioned
// into sub-paths (by road category, zone type, or fixed length), each
// sub-path is answered with a strict path query against an extended
// SNT-index (an FM-index over the trajectory string plus per-segment
// time-sorted columns holding traversal times), failing sub-queries are
// greedily relaxed (interval widening, path splitting, predicate dropping,
// speed-limit fallback), and the per-sub-path histograms are convolved into
// a histogram for the full path. A cardinality estimator skips index scans
// for sub-queries that cannot meet their sample-size requirement.
//
// Quick start:
//
//	g, ids := pathhist.PaperExampleNetwork()
//	store := pathhist.NewStore()
//	// ... add trajectories ...
//	eng, err := pathhist.NewEngine(g, store, pathhist.Options{})
//	res, err := eng.Query(pathhist.Query{
//	    Path: pathhist.Path{ids["A"], ids["B"], ids["E"]},
//	    Around: t0, WindowSeconds: 900, Beta: 20,
//	})
//	fmt.Println(res.Histogram.Mean(), res.Histogram.Quantile(0.95))
//
// The internal packages implement each subsystem: see DESIGN.md for the
// inventory and EXPERIMENTS.md for the reproduced evaluation.
package pathhist

import (
	"context"
	"errors"
	"fmt"
	"io"

	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/snapio"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// Re-exported core types. The network and trajectory models are the
// library's vocabulary; aliases keep one canonical definition.
type (
	// Graph is the spatial road network G = (V, E, F).
	Graph = network.Graph
	// Path is a traversable sequence of directed edges.
	Path = network.Path
	// EdgeID identifies a directed edge.
	EdgeID = network.EdgeID
	// Store holds the trajectory set T.
	Store = traj.Store
	// Entry is one traversed segment of a trajectory.
	Entry = traj.Entry
	// TrajID identifies a trajectory.
	TrajID = traj.ID
	// UserID identifies a driver.
	UserID = traj.UserID
	// Histogram is a travel-time histogram.
	Histogram = hist.Histogram
)

// NoUser disables user filtering.
const NoUser = traj.NoUser

// Zone is the zone type of a road segment.
type Zone = network.Zone

// Zone types.
const (
	ZoneCity        = network.ZoneCity
	ZoneRural       = network.ZoneRural
	ZoneSummerHouse = network.ZoneSummerHouse
	ZoneAmbiguous   = network.ZoneAmbiguous
)

// NewStore returns an empty trajectory store.
func NewStore() *Store { return traj.NewStore() }

// NewGraph returns an empty road network.
func NewGraph() *Graph { return network.New() }

// ReadGraph deserialises a road network written with Graph.WriteTo.
func ReadGraph(r io.Reader) (*Graph, error) { return network.ReadGraph(r) }

// ReadStore deserialises a trajectory store written with Store.WriteTo.
func ReadStore(r io.Reader) (*Store, error) { return traj.ReadStore(r) }

// PaperExampleNetwork returns the Figure 1 / Table 1 example network and a
// name-to-edge mapping for segments "A".."F".
func PaperExampleNetwork() (*Graph, map[string]EdgeID) { return network.PaperExample() }

// PartitionMethod selects the initial query partitioning π (Section 3.2).
type PartitionMethod int

// Partitioning methods.
const (
	// ByZone splits sub-paths at zone-type changes (πZ, the paper's best).
	ByZone PartitionMethod = iota
	// ByCategory splits at road-category changes (πC).
	ByCategory
	// ByZoneAndCategory splits at either change (πZC).
	ByZoneAndCategory
	// NoPartition processes the whole path as one sub-query (πN).
	NoPartition
	// MainRoadUserFilters is πMDM: like ByCategory, with user filters
	// applied only on main roads.
	MainRoadUserFilters
	// EverySegment is π1 (the pre-computable per-segment baseline).
	EverySegment
)

// EstimatorMode selects the cardinality estimator (Section 4.4).
type EstimatorMode = card.Mode

// Estimator modes.
const (
	EstimatorOff     = card.Off
	EstimatorISA     = card.ISA
	EstimatorBTFast  = card.BTFast
	EstimatorBTAcc   = card.BTAcc
	EstimatorCSSFast = card.CSSFast
	EstimatorCSSAcc  = card.CSSAcc
)

// Options configures an Engine.
type Options struct {
	// PartitionDays enables temporal index partitioning with the given
	// partition size in days (0 = one partition).
	PartitionDays int
	// Partition selects π (ByZone by default).
	Partition PartitionMethod
	// RegularP, when > 0, overrides Partition with the regular πp
	// partitioning into sub-paths of length p (the paper's baselines use
	// p = 1, 2, 3).
	RegularP int
	// LongestPrefixSplitting uses σL instead of the default (and per the
	// paper both faster and more accurate) regular halving σR.
	LongestPrefixSplitting bool
	// Estimator enables cardinality estimation. The modes name the
	// paper's selectivity formulas, not a container: *Fast take the
	// time-of-day selectivity as uniform (formula 1), *Acc from per-segment
	// histograms (formula 2); BT* take the timeframe selectivity from the
	// first segment's min/max entry times (formula 3), CSS* from an exact
	// O(log n) range count. Every mode runs on the same index.
	Estimator EstimatorMode
	// BucketSeconds is the histogram bucket width h (default 10 s).
	BucketSeconds int
	// IntervalSizes is the widening ladder A in seconds (default: 15, 30,
	// 45, 60, 90, 120 minutes).
	IntervalSizes []int64
	// ZoneBetas overrides a query's Beta per initial sub-query by the
	// zone of its first segment — e.g. a smaller sample-size requirement
	// in rural zones (the extension suggested in the paper's outlook).
	ZoneBetas map[Zone]int
	// DisableCache turns off the engine's reads of the index's
	// terminal-fallback memo, which answers a single segment's whole-range
	// [0, tmax] fallback: every sub-query attempt that reaches the index
	// scans it.
	DisableCache bool
	// DisableFullResultCache turns off the engine's full-result cache,
	// which memoises the final convolved histogram per (path, interval,
	// filter, beta) so repeated trips skip processing entirely.
	DisableFullResultCache bool
	// AutoCompactPartitions enables automatic partition compaction: when a
	// batch ingest leaves the index with at least this many temporal
	// partitions, Extend returns as soon as its batch is published and
	// wakes a background goroutine, which merges the partitions back down
	// off the write lock and publishes each merge as its own epoch.
	// Repeated small ingests otherwise degrade query latency linearly —
	// every partition costs one FM-index backward search per sub-query. 0
	// disables auto-compaction; Engine.Compact remains available either
	// way. An engine with it set must be Closed to stop the goroutine.
	AutoCompactPartitions int
	// Deprecated: ignored; auto-compaction always runs in the background.
	CompactInBackground bool
}

// Engine answers travel-time queries over an indexed trajectory set.
//
// An Engine is safe for concurrent use by any number of goroutines: the
// served index snapshot is immutable, per-query scan state lives in pooled
// scratch buffers, and the shared caches are internally synchronised. A
// single Engine is meant to be shared by all request handlers of a server
// (see internal/ttserve).
//
// The one mutation an Engine supports is batch ingestion: Extend absorbs a
// batch of newer trajectories by building a copy-on-write index snapshot
// next to the serving one and publishing it atomically as a new epoch.
// Queries never block on an Extend — in-flight queries finish against the
// snapshot they started on, and cached results are epoch-stamped so none
// ever crosses the boundary (see DESIGN.md §8).
type Engine struct {
	g  *network.Graph
	qe *query.Engine

	// mapping is the read-only backing store of a zero-copy snapshot load
	// (LoadSnapshotFileMapped); nil for built or copy-loaded engines. The
	// engine holds it for its whole lifetime — later epochs produced by
	// Extend/Compact share untouched columns with the mapped snapshot, so
	// it is never safe to unmap while the engine (or any Replica) is
	// reachable; process exit releases it. Snapshot retention must never
	// prune the file behind it (see MappedSnapshotPath).
	mapping *snapio.Mapping
}

// NewEngine indexes the store and returns a query engine. The store is
// sorted by trajectory start time as a side effect.
func NewEngine(g *Graph, store *Store, opts Options) (*Engine, error) {
	if g == nil || store == nil {
		return nil, errors.New("pathhist: nil graph or store")
	}
	if store.Len() == 0 {
		return nil, errors.New("pathhist: empty trajectory store")
	}
	ix := snt.Build(g, store, snt.Options{PartitionDays: opts.PartitionDays})
	return &Engine{g: g, qe: query.NewEngineAt(ix, engineConfig(ix, opts), 0)}, nil
}

// LadderConfig maps the public Options onto the relaxation-ladder part of
// the internal query configuration — π, σ, the widening list A, the bucket
// width h and the per-zone β overrides — with defaults applied. It is the
// only such mapping: engineConfig completes it for a single engine, and the
// sharded router hands it to the shared driver (query.Run) as is.
func LadderConfig(opts Options) query.Config {
	pt := query.Partitioner{Kind: query.ZoneKind}
	switch opts.Partition {
	case ByCategory:
		pt.Kind = query.Category
	case ByZoneAndCategory:
		pt.Kind = query.ZoneCategory
	case NoPartition:
		pt.Kind = query.None
	case MainRoadUserFilters:
		pt.Kind = query.MDM
	case EverySegment:
		pt = query.Partitioner{Kind: query.Regular, P: 1}
	}
	if opts.RegularP > 0 {
		pt = query.Partitioner{Kind: query.Regular, P: opts.RegularP}
	}
	cfg := query.Config{
		Partitioner: pt,
		Alphas:      opts.IntervalSizes,
		BucketWidth: opts.BucketSeconds,
		ZoneBetas:   opts.ZoneBetas,
	}
	if opts.LongestPrefixSplitting {
		cfg.Splitter = query.SigmaL
	}
	return cfg.WithDefaults()
}

// engineConfig completes LadderConfig into the internal query engine
// configuration, building the cardinality estimator against the index that
// will be served (NewEngine's freshly built one, or a loaded snapshot's
// restored one).
func engineConfig(ix *snt.Index, opts Options) query.Config {
	cfg := LadderConfig(opts)
	if opts.Estimator != card.Off {
		cfg.Estimator = card.New(ix, opts.Estimator)
	}
	cfg.DisableCache = opts.DisableCache
	cfg.DisableFullResultCache = opts.DisableFullResultCache
	cfg.Compaction = snt.CompactionPolicy{TriggerPartitions: opts.AutoCompactPartitions}
	return cfg
}

// IngestStats describes the snapshot one Extend published.
type IngestStats = query.IngestStats

// Extend ingests a batch of newer trajectories without rebuilding the
// engine or blocking queries. Every trajectory in the batch must start
// after the currently indexed data ends (the temporal-partitioning
// precondition of the paper's Section 4.3.2); the batch becomes one new
// temporal partition, the cardinality estimator is refreshed, and the
// post-extend index state is published atomically as a new epoch (reported
// in the returned IngestStats). The batch store is sorted by start time as
// a side effect and its trajectory ids are reassigned to continue the
// engine's id space. Concurrent Extend calls are serialised; a rejected
// batch leaves the engine unchanged.
func (e *Engine) Extend(batch *Store) (IngestStats, error) { return e.qe.Extend(batch) }

// ExtendCtx is Extend honouring a context deadline while waiting to become
// the active writer (concurrent Extends serialise on an internal lock, so a
// slow competing ingest can consume a caller's whole deadline before its
// own work starts). Once the index build begins it always runs to
// publication: a context canceled mid-build does not un-publish the batch,
// so callers never observe a batch both acknowledged and absent.
func (e *Engine) ExtendCtx(ctx context.Context, batch *Store) (IngestStats, error) {
	return e.qe.ExtendCtx(ctx, batch)
}

// ValidateExtend checks a batch against the currently published snapshot
// exactly as Extend would — edge ids in range, trajectories internally
// valid, every start time after the indexed range — without ingesting or
// mutating anything. It exists for write-ahead logging: the serving layer
// validates first, durably logs the raw batch, then Extends, so the log
// never records a batch that replay would reject. A nil error here is
// Extend's admission contract modulo a concurrent Extend (callers wanting
// the full guarantee serialise the validate→log→extend sequence).
func (e *Engine) ValidateExtend(batch *Store) error { return e.qe.Index().ValidateBatch(batch) }

// Close stops the engine's background compactor, if
// Options.AutoCompactPartitions ever started one, and waits for it: a merge
// in preparation is abandoned, one already applying finishes publishing. The engine keeps answering queries (and even Extends)
// after Close — only background merging stops. Close is idempotent.
func (e *Engine) Close() { e.qe.Close() }

// Replica returns a read-only replica of the engine: it serves the exact
// snapshot the primary publishes — the two share one atomic publication
// cell, so an Extend on the primary is visible to the replica the same
// instant and answers stay bit-identical — while owning its result caches,
// spreading concurrent read load over per-replica cache locks. A replica
// of a mapped engine (LoadSnapshotFileMapped) shares the mapping and costs
// no index memory; K replicas serve off one page cache. Extend and Compact
// on a replica fail with query.ErrFollower; Close it independently.
//
// Replica is a benchmark shim: the benchmark's traced replay runs each
// nesting level on its own replica, so every level meets the same cache
// history. Serving code does not use it — a replica repeats its primary's
// work on the same snapshot — and CI rejects a call outside tests under
// cmd/, internal/ and examples/.
func (e *Engine) Replica() *Engine {
	return &Engine{g: e.g, qe: query.NewFollower(e.qe), mapping: e.mapping}
}

// MappedSnapshotPath returns the snapshot file this engine serves over a
// read-only mapping ("" when the engine was built or copy-loaded). While
// non-empty, the file must not be deleted: unlinking a mapped file keeps
// the current process serving (unix keeps the inode alive) but silently
// breaks the next restart's re-open — snapshot retention treats this path
// exactly like the loaded file and never prunes it.
func (e *Engine) MappedSnapshotPath() string {
	if e.mapping == nil {
		return ""
	}
	return e.mapping.Path()
}

// Epoch returns the engine's current index epoch: 0 at construction,
// incremented by every successful non-empty Extend and every effective
// Compact.
func (e *Engine) Epoch() uint64 { return e.qe.Epoch() }

// CompactionStats reports what one compaction did.
type CompactionStats = snt.CompactionStats

// Compact merges the index's temporal partitions into one (the manual call
// ignores the auto-compaction threshold) and publishes the compacted index
// as a new epoch. Queries never block: compaction runs off the serving path
// against an immutable snapshot, and the compacted index answers every
// query bit-identically to the fragmented one — only faster, because each
// sub-query pays one FM-index backward search per partition. Extends wait
// only for the final publication, not the merge; a batch ingested while the
// merge prepares stays its own partition. Stats with PartitionsBefore ==
// PartitionsAfter mean nothing needed merging.
func (e *Engine) Compact() (CompactionStats, error) { return e.qe.Compact() }

// CompactionInfo returns how many compactions this engine has published
// and the stats of the most recent one.
func (e *Engine) CompactionInfo() (int64, CompactionStats) { return e.qe.CompactionInfo() }

// CompactionFailures counts auto-compactions that failed after their
// triggering ingest was already published (the ingest succeeded either
// way; the fragmented layout lives on until the next trigger or a manual
// Compact).
func (e *Engine) CompactionFailures() int64 { return e.qe.CompactionFailures() }

// IndexInfo summarises the served index snapshot (tree kind, partitions —
// including how many the last compaction merged down from — records,
// trajectories).
func (e *Engine) IndexInfo() string { return e.qe.Index().String() }

// Trajectories returns the number of indexed trajectories in the currently
// published snapshot.
func (e *Engine) Trajectories() int { return e.qe.Index().Stats().Trajs }

// Query describes a travel-time question. Optional features are switched
// on by explicit enable flags (Periodic, FilterUser, Exclude) so that every
// id and timestamp keeps its full domain — timestamp 0, user 0 and
// trajectory 0 are all valid values, never sentinels.
type Query struct {
	// Path is the path whose travel-time distribution is requested.
	Path Path
	// Periodic asks for the periodic time-of-day window of WindowSeconds
	// centred on Around's time of day. For convenience a non-zero Around
	// implies Periodic, so the flag is only required when the window is
	// centred on the stroke of midnight (Around == 0).
	Periodic bool
	Around   int64
	// WindowSeconds is the periodic window width (default 900 = 15 min).
	WindowSeconds int64
	// From/Until give the fixed interval [From, Until) of a non-periodic
	// query. Until == 0 means the end of the indexed data.
	From, Until int64
	// FilterUser restricts results to User's trajectories (user ids are
	// valid from 0 up, so an explicit flag avoids ambiguity).
	FilterUser bool
	User       UserID
	// Beta is the per-sub-query sample-size requirement (default 20, the
	// paper's accuracy sweet spot).
	Beta int
	// Exclude hides ExcludeTraj's trajectory from retrieval, so evaluation
	// queries derived from indexed trajectories cannot retrieve themselves.
	// The flag mirrors FilterUser: trajectory ids are valid from 0 up, so
	// an explicit flag avoids the zero-value ambiguity.
	Exclude     bool
	ExcludeTraj TrajID
}

// SubEstimate describes one final sub-query of a result.
type SubEstimate struct {
	Path      Path
	MeanTT    float64
	Samples   int
	Fallback  bool // speed-limit estimate, no data
	Histogram *Histogram
}

// Result is a travel-time distribution for a full path.
type Result struct {
	// Histogram is the convolved travel-time distribution in seconds.
	Histogram *Histogram
	// MeanSeconds is the summed sub-query sample means (the paper's point
	// estimate).
	MeanSeconds float64
	// Subs are the final sub-queries in path order.
	Subs []SubEstimate
	// IndexScans and EstimatorSkips expose the processing effort.
	IndexScans     int
	EstimatorSkips int
	// CacheHits and CacheMisses count sub-queries answered by the index's
	// terminal-fallback memo versus scans that reached the index.
	CacheHits   int
	CacheMisses int
	// CacheInvalidations counts full-result cache entries from another
	// index epoch this query dropped lazily (non-zero only for queries
	// racing an Extend).
	CacheInvalidations int
	// FullCacheHit marks a result served whole from the engine's
	// full-result cache (all other effort counters are zero).
	FullCacheHit bool
	// Epoch is the index epoch the query ran against.
	Epoch uint64
}

// StrictPathQuery validates a Query against the network — non-empty path,
// edge ids in range, traversable — and translates it into the strict path
// query spq(P, I, f, β) the relaxation driver runs: β defaults to 20, a
// periodic window to 15 minutes, and an open-ended fixed interval ends at
// tmax, the end of the indexed time range. It is the only such translation;
// Engine.QueryCtx and the sharded router both call it.
func StrictPathQuery(g *Graph, q Query, tmax int64) (query.SPQ, error) {
	if len(q.Path) == 0 {
		return query.SPQ{}, errors.New("pathhist: empty query path")
	}
	for _, edge := range q.Path {
		if int(edge) < 0 || int(edge) >= g.NumEdges() {
			return query.SPQ{}, fmt.Errorf("pathhist: edge id %d out of range [0, %d)", edge, g.NumEdges())
		}
	}
	if !g.IsTraversable(q.Path) {
		return query.SPQ{}, errors.New("pathhist: path is not traversable")
	}
	spq := query.SPQ{
		Path:   q.Path,
		Filter: snt.Filter{User: traj.NoUser, ExcludeTraj: -1},
		Beta:   q.Beta,
	}
	if spq.Beta == 0 {
		spq.Beta = 20
	}
	if q.Periodic || q.Around != 0 {
		w := q.WindowSeconds
		if w <= 0 {
			w = 900
		}
		spq.Interval = snt.PeriodicAround(q.Around, w)
	} else {
		until := q.Until
		if until == 0 {
			until = tmax + 1
		}
		spq.Interval = snt.NewFixed(q.From, until)
	}
	if q.Exclude {
		spq.Filter.ExcludeTraj = q.ExcludeTraj
	}
	if q.FilterUser {
		spq.Filter.User = q.User
	}
	return spq, nil
}

// Query answers a travel-time query.
func (e *Engine) Query(q Query) (*Result, error) {
	return e.QueryCtx(context.Background(), q)
}

// QueryCtx is Query honouring context cancellation and deadlines: the
// engine checks the context at every sub-query boundary and, inside the
// index scans, every few thousand records, so even a query whose scans
// cover millions of traversal records returns within a hair of its
// deadline. A canceled query returns ctx.Err() (test with errors.Is against
// context.DeadlineExceeded / context.Canceled); no partial result is
// returned and nothing partial enters the engine's caches. With a
// background context the behaviour and the result are exactly Query's.
func (e *Engine) QueryCtx(ctx context.Context, q Query) (*Result, error) {
	_, tmax := e.qe.Index().TimeRange()
	spq, err := StrictPathQuery(e.g, q, tmax)
	if err != nil {
		return nil, err
	}
	res, err := e.qe.TripQueryCtx(ctx, spq)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Histogram:          res.Hist,
		MeanSeconds:        res.PredictedMean(),
		IndexScans:         res.IndexScans,
		EstimatorSkips:     res.EstimatorSkips,
		CacheHits:          res.CacheHits,
		CacheMisses:        res.CacheMisses,
		CacheInvalidations: res.CacheInvalidations,
		FullCacheHit:       res.FullCacheHit,
		Epoch:              res.Epoch,
	}
	out.Subs = make([]SubEstimate, len(res.Subs))
	for i := range res.Subs {
		s := &res.Subs[i]
		out.Subs[i] = SubEstimate{
			Path:      s.Path,
			MeanTT:    s.MeanX(),
			Samples:   s.N,
			Fallback:  s.Fallback,
			Histogram: s.Hist,
		}
	}
	return out, nil
}

// SpeedLimitEstimate returns the data-free travel-time estimate for a path
// in seconds (the estimateTT baseline).
func (e *Engine) SpeedLimitEstimate(p Path) float64 { return e.g.EstimatePathTT(p) }

// QueryEngine exposes the underlying query engine. The returned type lives
// in an internal package, so only in-module callers can use it — the sharded
// scatter-gather layer pins per-shard index snapshots through it
// (internal/sharded).
func (e *Engine) QueryEngine() *query.Engine { return e.qe }

// IndexMemory returns the modelled index memory footprint in bytes by
// component: C arrays, wavelet trees, user container, temporal forest.
func (e *Engine) IndexMemory() (c, wt, user, forest int) {
	m := e.qe.Index().Memory()
	return m.CBytes, m.WTBytes, m.UserBytes, m.ForestBytes
}

// Partitions returns the number of temporal partitions of the currently
// published snapshot (grows by one per Extend).
func (e *Engine) Partitions() int { return e.qe.Index().NumPartitions() }

// CacheStats reports the cumulative statistics of one memo level.
type CacheStats = query.CacheStats

// CacheStats snapshots the engine's terminal-fallback memo counters: Hits
// and Misses are the Result CacheHits and CacheMisses summed over completed
// queries (all zero when the cache is disabled).
func (e *Engine) CacheStats() CacheStats { return e.qe.Cache() }

// FullCacheStats snapshots the engine's full-result cache counters (all
// zero when the cache is disabled).
func (e *Engine) FullCacheStats() CacheStats { return e.qe.FullCache() }
