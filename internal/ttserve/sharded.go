package ttserve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"pathhist"
	"pathhist/internal/metrics"
	"pathhist/internal/sharded"
)

// ShardedServer is the scatter-gather serving front (DESIGN.md §14): the
// core over a sharded.Cluster plus one Shard per stripe carrying its
// durability state (its own write-ahead log and snapshot directory).
// Queries fan out through the cluster's router and merge bit-identically to
// a single engine while every shard is healthy; when shards are down the
// answer degrades to the survivors' exact merge with `partial: true` and
// the missing shard list, and only below the coverage floor does /query
// fail with a 503. Ingest routes each batch whole to one healthy shard,
// which runs the same validate → WAL append → index sequence a
// single-engine deployment runs — so the per-batch durability contract
// (acknowledged ⇒ fsynced ⇒ recovered) is unchanged, just striped.
type ShardedServer struct {
	core
	cluster *sharded.Cluster
}

// errShed marks a routed ingest the target shard refused with a 503 the
// routing callback already wrote: its own WAL or merge backlog outgrew its
// bound, or it latched degraded read-only mode after the cluster reserved
// it — a window the degraded-latch mirroring closes for every later batch.
var errShed = errors.New("ttserve: ingest shard shed the batch")

// NewShardedServer wraps a cluster and its per-shard durability units into
// one handler. shards[i] must wrap the same engine as cluster.Engine(i).
// Front-level admission limits (body size, trajectory cap, timeouts) come
// from cfg.
func NewShardedServer(cluster *sharded.Cluster, shards []*Shard, cfg Config) (*ShardedServer, error) {
	if cluster == nil || len(shards) != cluster.NumShards() {
		return nil, fmt.Errorf("ttserve: %d shard servers for a %d-shard cluster", len(shards), cluster.NumShards())
	}
	s := &ShardedServer{cluster: cluster}
	s.init(s, cfg, cluster.Counters(), shards)
	// A shard's degraded latch takes it out of the ingest rotation: the
	// next batch reroutes instead of failing. A shard restored straight
	// into degraded mode (its log failed during recovery) is out from the
	// first request.
	for i, sh := range shards {
		sh.onDegraded = func() { cluster.SetDegraded(i, true) }
		if sh.Degraded() {
			sh.onDegraded()
		}
	}
	return s, nil
}

// readyLine: the front stays ready while shards are down — partial
// degradation is the design — so the body, not the status, carries the
// per-shard picture.
func (s *ShardedServer) readyLine() string {
	healthy := 0
	for _, st := range s.cluster.Status() {
		if st.State == "ready" {
			healthy++
		}
	}
	if n := s.cluster.NumShards(); healthy < n {
		return fmt.Sprintf("ready (%d of %d shards healthy)", healthy, n)
	}
	return "ready"
}

// ShardedResponse is the JSON shape of a sharded /query answer: the
// single-engine Response plus the partial-result contract. Epoch is the sum
// of the snapshot epochs the answer read, over the shards it covers — a
// cluster-wide publication counter, not a single index version.
type ShardedResponse struct {
	Response
	// Partial marks an answer computed without MissingShards' data; the
	// histogram and statistics are exact over the surviving shards.
	Partial bool `json:"partial,omitempty"`
	// MissingShards lists (ascending) the shards the answer excludes.
	MissingShards []int `json:"missing_shards,omitempty"`
	// Restarts counts mid-query shard failures the router recovered from.
	Restarts int `json:"restarts,omitempty"`
}

func (s *ShardedServer) answer(ctx context.Context, q pathhist.Query) (any, error) {
	res, err := s.cluster.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return s.toShardedResponse(res), nil
}

func (s *ShardedServer) toShardedResponse(res *sharded.Result) ShardedResponse {
	out := ShardedResponse{
		Partial:       res.Partial,
		MissingShards: res.Missing,
		Restarts:      res.Restarts,
	}
	out.Epoch = res.Epoch
	out.MeanSeconds = res.MeanSeconds
	out.IndexScans = res.IndexScans
	// The shards always read their terminal memos, so every index scan
	// missed them first: the single engine's rule with its memo on.
	out.CacheHits = res.CacheHits
	out.CacheMisses = res.IndexScans
	if len(res.Subs) > 0 {
		out.SubQueries = make([]SubResponse, len(res.Subs))
	}
	for i := range res.Subs {
		sub := &res.Subs[i]
		out.SubQueries[i] = SubResponse{
			Segments: len(sub.Path),
			Samples:  sub.N,
			MeanTT:   sub.MeanX(),
			Fallback: sub.Fallback,
		}
	}
	fillHistogram(&out.Response, res.Hist)
	return out
}

// ShardedExtendResponse is the JSON shape of a sharded /extend answer: the
// single-engine shape (Epoch and Total are the ingesting shard's) plus
// which shard took the batch and the cluster-wide total.
type ShardedExtendResponse struct {
	ExtendResponse
	Shard        int `json:"shard"`
	ClusterTotal int `json:"cluster_total_trajectories"`
}

// extend routes one batch whole to one healthy shard. Admission (global
// time-range validation, shard reservation) runs in the cluster; the Shard
// then runs the standard durable sequence — validate, WAL append + fsync,
// index — so a 200 carries the same crash-survival promise as the
// single-engine deployment. Batches admitted to different shards overlap
// their fsyncs (the WAL group-commits them per shard).
func (s *ShardedServer) extend(w http.ResponseWriter, r *http.Request) {
	b, ok := s.admitBatch(w, r)
	if !ok {
		return
	}
	defer b.cancel()
	var st pathhist.IngestStats
	// Until a shard says otherwise a refusal is cluster admission's: the
	// batch's time range overlaps data some shard already indexed or a
	// batch still in flight.
	status := http.StatusUnprocessableEntity
	si, err := s.cluster.RouteIngest(b.batch, func(shard int) error {
		sh := s.shards[shard]
		if sh.Degraded() {
			// The shard latched fail-stop between the cluster's reservation
			// and here (or outside any ingest, e.g. a failed snapshot
			// rotation).
			s.extendRejects.Add(1)
			unavailableJSON(w, fmt.Sprintf("shard %d is degraded (read-only) after a write-ahead log failure; the next batch reroutes", shard))
			return errShed
		}
		if msg, shed := sh.ingestOverload(); shed {
			s.extendOverloads.Add(1)
			unavailableJSON(w, fmt.Sprintf("shard %d: %s", shard, msg))
			return errShed
		}
		var ierr error
		st, status, ierr = sh.ingest(b.ctx, b.raw, b.batch)
		return ierr
	})
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ShardedExtendResponse{
			ExtendResponse: b.acknowledged(st),
			Shard:          si,
			ClusterTotal:   s.cluster.Trajectories(),
		})
	case errors.Is(err, errShed): // the callback answered
	case errors.Is(err, sharded.ErrNoIngestShard):
		s.extendOverloads.Add(1)
		unavailableJSON(w, "every shard is down or degraded (read-only); restart to recover the write path")
	default:
		s.rejectIngest(w, status, err)
	}
}

// ShardedStats is the JSON shape of the sharded /statsz: front-level ingest
// counters (the applied totals are the shards' sums), the cluster's
// fault-tolerance counters, and every shard's health plus full
// single-engine stats.
type ShardedStats struct {
	Shards                int                         `json:"shards"`
	Trajectories          int                         `json:"trajectories"`
	Ready                 bool                        `json:"ready"`
	Draining              bool                        `json:"draining,omitempty"`
	Extends               int64                       `json:"extends"`
	ExtendTrajectories    int64                       `json:"extend_trajectories"`
	ExtendRejects         int64                       `json:"extend_rejects"`
	ExtendOverloadRejects int64                       `json:"extend_overload_rejects"`
	LastExtendUnix        int64                       `json:"last_extend_unix,omitempty"`
	Counters              metrics.ServerCounterValues `json:"counters"`
	ShardHealth           []sharded.ShardStatus       `json:"shard_health"`
	ShardStats            []Stats                     `json:"shard_stats"`
}

func (s *ShardedServer) statsz(w http.ResponseWriter, r *http.Request) {
	st := ShardedStats{
		Shards:                s.cluster.NumShards(),
		Trajectories:          s.cluster.Trajectories(),
		Ready:                 s.ready.Load(),
		Draining:              s.draining.Load(),
		ExtendRejects:         s.extendRejects.Load(),
		ExtendOverloadRejects: s.extendOverloads.Load(),
		Counters:              s.counters.Snapshot(),
		ShardHealth:           s.cluster.Status(),
	}
	for i := range s.shards {
		ss := s.shardStats(i)
		st.Extends += ss.Extends
		st.ExtendTrajectories += ss.ExtendTrajectories
		st.LastExtendUnix = max(st.LastExtendUnix, ss.LastExtendUnix)
		st.ShardStats = append(st.ShardStats, ss)
	}
	writeJSON(w, http.StatusOK, st)
}

// snapshot handles POST /snapshot: persist every shard's index now.
func (s *ShardedServer) snapshot(w http.ResponseWriter, r *http.Request) {
	out, err := s.WriteSnapshots()
	status := http.StatusOK
	if err != nil {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, out)
}

// ShardCompactResult is one shard's entry in a /compact fan-out answer.
type ShardCompactResult struct {
	Shard int `json:"shard"`
	CompactResponse
	Error string `json:"error,omitempty"`
}

// compact handles POST /compact: merge every shard's ingested partitions.
// Shards compact independently; a degraded shard is skipped (compaction
// would advance an epoch its broken log no longer anchors).
func (s *ShardedServer) compact(w http.ResponseWriter, r *http.Request) {
	out := make([]ShardCompactResult, len(s.shards))
	status := http.StatusOK
	for i, sh := range s.shards {
		out[i] = ShardCompactResult{Shard: i}
		if sh.Degraded() {
			out[i].Error = "shard is degraded (read-only) after a write-ahead log failure"
			continue
		}
		var err error
		if out[i].CompactResponse, err = sh.compact(); err != nil {
			out[i].Error = err.Error()
			status = http.StatusUnprocessableEntity
		}
	}
	writeJSON(w, status, out)
}
