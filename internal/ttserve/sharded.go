package ttserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"pathhist"
	"pathhist/internal/metrics"
	"pathhist/internal/sharded"
)

// ShardedServer is the scatter-gather serving front (DESIGN.md §14): one
// HTTP surface over a sharded.Cluster plus one per-shard Server carrying
// each shard's durability state (its own write-ahead log and snapshot
// directory). Queries fan out through the cluster's router and merge
// bit-identically to a single engine while every shard is healthy; when
// shards are down the answer degrades to the survivors' exact merge with
// `partial: true` and the missing shard list, and only below the coverage
// floor does /query fail with a 503. Ingest routes each batch whole to one
// healthy shard, whose Server runs the same validate → WAL append → index
// sequence a single-engine deployment runs — so the per-batch durability
// contract (acknowledged ⇒ fsynced ⇒ recovered) is unchanged, just striped.
type ShardedServer struct {
	cluster *sharded.Cluster
	shards  []*Server
	cfg     Config
	mux     *http.ServeMux

	extends         atomic.Int64
	extendTrajs     atomic.Int64
	extendRejects   atomic.Int64
	extendOverloads atomic.Int64
	lastExtendUnix  atomic.Int64

	ready    atomic.Bool
	draining atomic.Bool
}

// errShardOverloaded marks a routed ingest refused because the target
// shard's own WAL or merge backlog outgrew its bound (mapped to 503).
var errShardOverloaded = errors.New("ttserve: ingest shard is overloaded")

// errShardDegraded marks a routed ingest refused because the target shard
// latched degraded read-only mode after the cluster reserved it — a window
// the degraded-latch mirroring closes for every later batch.
var errShardDegraded = errors.New("ttserve: ingest shard is degraded (read-only)")

// NewShardedServer wraps a cluster and its per-shard Servers into one
// handler. shards[i] must wrap the same engine as cluster.Engine(i) — each
// carries that shard's WAL and snapshot configuration; their HTTP surface
// is never registered, only their ingest/snapshot/stats machinery is used.
// Front-level admission limits (body size, trajectory cap, timeouts) come
// from cfg.
func NewShardedServer(cluster *sharded.Cluster, shards []*Server, cfg Config) (*ShardedServer, error) {
	if cluster == nil || len(shards) != cluster.NumShards() {
		return nil, fmt.Errorf("ttserve: %d shard servers for a %d-shard cluster", len(shards), cluster.NumShards())
	}
	if cfg.MaxExtendBytes <= 0 {
		cfg.MaxExtendBytes = DefaultMaxExtendBytes
	}
	s := &ShardedServer{cluster: cluster, shards: shards, cfg: cfg, mux: http.NewServeMux()}
	s.ready.Store(true)
	// A shard restored straight into degraded mode (its log failed during
	// recovery) must be out of the ingest rotation from the first request.
	for i, sh := range shards {
		if sh.Degraded() {
			cluster.SetDegraded(i, true)
		}
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.readyz)
	s.mux.HandleFunc("/statsz", s.statsz)
	s.mux.HandleFunc("/query", s.query)
	if cfg.EnableExtend {
		s.mux.HandleFunc("/extend", s.extend)
		s.mux.HandleFunc("/compact", s.compact)
		if len(shards) > 0 && shards[0].cfg.SnapshotDir != "" {
			s.mux.HandleFunc("/snapshot", s.snapshot)
		}
	}
	return s, nil
}

// Counters exposes the cluster's robustness counters (shared, live).
func (s *ShardedServer) Counters() *metrics.ServerCounters { return s.cluster.Counters() }

// ServeHTTP dispatches behind the same panic isolation as the single-engine
// Server: a handler panic becomes a 500 on that request, never a crash.
func (s *ShardedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &headerTracker{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.cluster.Counters().PanicsRecovered.Add(1)
		if !tw.wrote {
			rejectJSON(tw.ResponseWriter, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", rec))
		}
	}()
	s.mux.ServeHTTP(tw, r)
}

// BeginDrain moves the front and every shard into the terminal draining
// state (see Server.BeginDrain).
func (s *ShardedServer) BeginDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
	for _, sh := range s.shards {
		sh.BeginDrain()
	}
}

// SetReady overrides the readiness bit; BeginDrain clears it permanently.
func (s *ShardedServer) SetReady(v bool) { s.ready.Store(v && !s.draining.Load()) }

// readyz reports routability. The front stays ready while shards are down —
// partial degradation is the design — so the body, not the status, carries
// the per-shard picture.
func (s *ShardedServer) readyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.draining.Load() {
		w.Header().Set("Retry-After", RetryAfter())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	healthy := 0
	for _, st := range s.cluster.Status() {
		if st.State == "ready" {
			healthy++
		}
	}
	w.WriteHeader(http.StatusOK)
	if n := s.cluster.NumShards(); healthy < n {
		fmt.Fprintf(w, "ready (%d of %d shards healthy)\n", healthy, n)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ShardedResponse is the JSON shape of a sharded /query answer: the
// single-engine Response plus the partial-result contract. Epoch is the sum
// of the shards' epochs — a cluster-wide publication counter, not a single
// index version.
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

func (s *ShardedServer) query(w http.ResponseWriter, r *http.Request) {
	serveQuery(w, r, s.draining.Load(), s.cfg.QueryTimeout, s.cluster.Counters(),
		func(ctx context.Context, q pathhist.Query) (any, error) {
			res, err := s.cluster.Query(ctx, q)
			if err != nil {
				return nil, err
			}
			return s.toShardedResponse(res), nil
		})
}

func (s *ShardedServer) toShardedResponse(res *sharded.Result) ShardedResponse {
	out := ShardedResponse{
		Partial:       res.Partial,
		MissingShards: res.Missing,
		Restarts:      res.Restarts,
	}
	out.MeanSeconds = res.MeanSeconds
	out.IndexScans = res.IndexScans
	for i := range res.Subs {
		sub := &res.Subs[i]
		out.SubQueries = append(out.SubQueries, SubResponse{
			Segments: len(sub.Path),
			Samples:  len(sub.X),
			MeanTT:   sub.MeanX(),
			Fallback: sub.Fallback,
		})
	}
	for _, st := range s.cluster.Status() {
		out.Epoch += st.Epoch
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
// time-range validation, shard reservation) runs in the cluster; the shard's
// own Server then runs the standard durable sequence — validate, WAL
// append + fsync, index — so a 200 carries the same crash-survival promise
// as the single-engine deployment. Batches admitted to different shards
// overlap their fsyncs (the WAL group-commits them per shard).
func (s *ShardedServer) extend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST a traj-format batch to /extend")
		return
	}
	if s.draining.Load() {
		s.extendOverloads.Add(1)
		unavailableJSON(w, "server is draining")
		return
	}
	started := time.Now()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxExtendBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.extendOverloads.Add(1)
			rejectJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds the %d-byte limit; split it into smaller batches", tooBig.Limit))
			return
		}
		s.extendRejects.Add(1)
		rejectJSON(w, http.StatusBadRequest, fmt.Sprintf("reading batch: %v", err))
		return
	}
	batch, err := pathhist.ReadStore(bytes.NewReader(raw))
	if err != nil {
		s.extendRejects.Add(1)
		rejectJSON(w, http.StatusBadRequest, fmt.Sprintf("decoding batch: %v", err))
		return
	}
	if max := s.cfg.MaxExtendTrajectories; max > 0 && batch.Len() > max {
		s.extendOverloads.Add(1)
		rejectJSON(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch holds %d trajectories, limit is %d; split it into smaller batches", batch.Len(), max))
		return
	}
	ctx := r.Context()
	if s.cfg.ExtendTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ExtendTimeout)
		defer cancel()
	}
	var st pathhist.IngestStats
	var shedMsg string
	status := http.StatusUnprocessableEntity
	si, err := s.cluster.RouteIngest(batch, func(shard int) error {
		sh := s.shards[shard]
		if sh.Degraded() {
			// The shard latched fail-stop between the cluster's reservation
			// and here (or outside any ingest, e.g. a failed snapshot
			// rotation). Mirror the latch so the next batch reroutes.
			s.cluster.SetDegraded(shard, true)
			return errShardDegraded
		}
		if msg, shed := sh.ingestOverload(); shed {
			shedMsg = msg
			return errShardOverloaded
		}
		var ierr error
		st, status, ierr = sh.ingest(ctx, raw, batch)
		if sh.Degraded() {
			// The shard's log just latched fail-stop: take it out of the
			// ingest rotation so the next batch reroutes instead of failing.
			s.cluster.SetDegraded(shard, true)
		}
		return ierr
	})
	if err != nil {
		switch {
		case errors.Is(err, errShardOverloaded):
			s.extendOverloads.Add(1)
			unavailableJSON(w, fmt.Sprintf("shard %d: %s", si, shedMsg))
		case errors.Is(err, errShardDegraded):
			s.extendRejects.Add(1)
			unavailableJSON(w, fmt.Sprintf("shard %d is degraded (read-only) after a write-ahead log failure; the next batch reroutes", si))
		case errors.Is(err, sharded.ErrNoIngestShard):
			s.extendOverloads.Add(1)
			unavailableJSON(w, "every shard is down or degraded (read-only); restart to recover the write path")
		case si < 0:
			// Cluster admission refused the batch (its time range overlaps
			// data some shard already indexed or a batch still in flight).
			s.extendRejects.Add(1)
			rejectJSON(w, http.StatusUnprocessableEntity, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.extendRejects.Add(1)
			s.cluster.Counters().QueryTimeouts.Add(1)
			rejectJSON(w, http.StatusGatewayTimeout,
				fmt.Sprintf("extend timed out after %v; no batch was acknowledged", s.cfg.ExtendTimeout))
		case errors.Is(err, context.Canceled):
			s.extendRejects.Add(1)
			s.cluster.Counters().CanceledRequests.Add(1)
			rejectJSON(w, StatusClientClosedRequest, "client closed the request")
		default:
			s.extendRejects.Add(1)
			rejectJSON(w, status, err.Error())
		}
		return
	}
	s.extends.Add(1)
	s.extendTrajs.Add(int64(batch.Len()))
	s.lastExtendUnix.Store(time.Now().Unix())
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ShardedExtendResponse{
		ExtendResponse: ExtendResponse{
			Trajectories: batch.Len(),
			Epoch:        st.Epoch,
			Total:        st.TotalTrajectories,
			ElapsedMs:    float64(time.Since(started).Microseconds()) / 1000,
		},
		Shard:        si,
		ClusterTotal: s.cluster.Trajectories(),
	})
}

// ShardedStats is the JSON shape of the sharded /statsz: front-level ingest
// counters, the cluster's fault-tolerance counters, and every shard's
// health plus full single-engine stats.
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
		Extends:               s.extends.Load(),
		ExtendTrajectories:    s.extendTrajs.Load(),
		ExtendRejects:         s.extendRejects.Load(),
		ExtendOverloadRejects: s.extendOverloads.Load(),
		LastExtendUnix:        s.lastExtendUnix.Load(),
		Counters:              s.cluster.Counters().Snapshot(),
		ShardHealth:           s.cluster.Status(),
	}
	for _, sh := range s.shards {
		st.ShardStats = append(st.ShardStats, sh.statsSnapshot())
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// ShardSnapshotResult is one shard's entry in a /snapshot fan-out answer.
type ShardSnapshotResult struct {
	Shard int `json:"shard"`
	SnapshotResponse
	Error string `json:"error,omitempty"`
}

// WriteSnapshots persists every shard's index to its own snapshot
// directory (rotating its WAL). Shards fail independently: a full disk
// under one shard must not stop the others from bounding their replay
// debt. The first error is returned after every shard was attempted.
func (s *ShardedServer) WriteSnapshots() ([]ShardSnapshotResult, error) {
	out := make([]ShardSnapshotResult, len(s.shards))
	var firstErr error
	for i, sh := range s.shards {
		resp, err := sh.WriteSnapshot()
		out[i] = ShardSnapshotResult{Shard: i, SnapshotResponse: resp}
		if err != nil {
			out[i].Error = err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
			if sh.Degraded() {
				s.cluster.SetDegraded(i, true)
			}
		}
	}
	return out, firstErr
}

// snapshot handles POST /snapshot: persist every shard's index now.
func (s *ShardedServer) snapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST to /snapshot to persist every shard's index")
		return
	}
	if s.draining.Load() {
		unavailableJSON(w, "server is draining")
		return
	}
	out, err := s.WriteSnapshots()
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
	}
	_ = json.NewEncoder(w).Encode(out)
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
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST to /compact to merge every shard's ingested partitions")
		return
	}
	if s.draining.Load() {
		unavailableJSON(w, "server is draining")
		return
	}
	out := make([]ShardCompactResult, len(s.shards))
	failed := false
	for i, sh := range s.shards {
		out[i] = ShardCompactResult{Shard: i}
		if sh.Degraded() {
			out[i].Error = "shard is degraded (read-only) after a write-ahead log failure"
			continue
		}
		st, err := sh.eng.Compact()
		if err != nil {
			out[i].Error = err.Error()
			failed = true
			continue
		}
		out[i].CompactResponse = CompactResponse{
			PartitionsBefore: st.PartitionsBefore,
			PartitionsAfter:  st.PartitionsAfter,
			Runs:             st.Runs,
			TrajsRebuilt:     st.TrajsRebuilt,
			RecordsRebuilt:   st.RecordsRebuilt,
			Epoch:            st.Epoch,
			ElapsedMs:        float64(st.Elapsed.Microseconds()) / 1000,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if failed {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	_ = json.NewEncoder(w).Encode(out)
}
