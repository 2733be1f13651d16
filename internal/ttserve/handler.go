// Package ttserve implements the HTTP JSON handler behind cmd/ttserve: a
// thin, concurrency-safe service layer over a pathhist.Engine. One Engine
// is shared by all requests without additional locking — the engine is safe
// for concurrent use (immutable index snapshots, per-query scratch state,
// internally synchronised caches; DESIGN.md §6), so the handler's
// concurrency model is simply net/http's goroutine-per-request.
//
// When live ingestion is enabled (Config.EnableExtend), POST /extend
// accepts a trajectory batch in the traj binary format (Store.WriteTo) and
// publishes it through Engine.Extend: queries keep flowing while the batch
// is indexed, and the response reports the newly published epoch.
//
// Durability (DESIGN.md §11): with Config.WAL set, /extend acknowledges a
// batch only after its raw bytes are fsynced to the write-ahead log —
// validate, append, index, in that order under one ingest lock — so a 200
// means the batch survives a crash at any later instant. On restart,
// ReplayWAL re-applies every logged record the restored snapshot does not
// already cover. WriteSnapshot rotates the log (the snapshot durably covers
// its records) and prunes old snapshot generations, and /extend sheds load
// with 503 + Retry-After when the log or the merge backlog outgrows its
// bound — backpressure instead of unbounded replay debt.
package ttserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathhist"
	"pathhist/internal/failpoint"
	"pathhist/internal/metrics"
	"pathhist/internal/sharded"
	"pathhist/internal/wal"
)

// Config parameterises the handler.
type Config struct {
	// EnableExtend registers the POST /extend ingestion endpoint and the
	// POST /compact maintenance endpoint. Off by default: both mutate
	// served state, so exposing them is an explicit deployment decision
	// (cmd/ttserve: -enable-extend).
	EnableExtend bool
	// MaxExtendBytes caps the accepted /extend request body size
	// (DefaultMaxExtendBytes when 0). A larger body is rejected with
	// 413 and a JSON error before the engine sees it.
	MaxExtendBytes int64
	// MaxExtendTrajectories caps the number of trajectories accepted in
	// one /extend batch (0 = unlimited). An oversized batch is rejected
	// with 413 and a JSON error before the engine indexes anything —
	// admission control for the ingest path: a single huge batch would
	// otherwise monopolise the (serialised) extend lock and build one
	// giant partition in the request goroutine.
	MaxExtendTrajectories int
	// SnapshotDir, when set, is where Server.WriteSnapshot persists the
	// served index (atomically, as an epoch-named snapshot file). Together
	// with EnableExtend it also registers the POST /snapshot endpoint —
	// snapshotting is a mutation of durable state, so the HTTP trigger
	// sits behind the same deployment gate as /extend and /compact
	// (cmd/ttserve: -snapshot-dir).
	SnapshotDir string
	// SnapshotKeep bounds how many epoch-named snapshot generations
	// WriteSnapshot retains in SnapshotDir (DefaultSnapshotKeep when 0;
	// the newest is always kept). Older generations only waste disk once a
	// newer snapshot is durably on disk — but several survivors mean a
	// corrupt newest file still leaves a recovery point.
	SnapshotKeep int
	// WAL, when non-nil, makes acknowledged ingestion durable: every
	// /extend batch is appended (and fsynced) to this log before the
	// engine indexes it, and rolled back if indexing then fails — the log
	// holds exactly the acknowledged, applied batches. The caller owns the
	// log's lifecycle (cmd/ttserve opens it, replays it into the engine
	// via ReplayWAL, and hands it here).
	WAL *wal.WAL
	// LoadedSnapshotPath names the snapshot file the engine was restored
	// from, when it was. Retention (WriteSnapshot's pruning) never deletes
	// this file: until a newer snapshot lands it is the only durable base
	// the WAL's records chain from.
	LoadedSnapshotPath string
	// MaxWALBytes sheds ingest load once the write-ahead log outgrows this
	// many bytes (0 = unbounded): /extend answers 503 + Retry-After until
	// a snapshot rotates the log. A growing log means snapshots have
	// fallen behind — accepting more batches would only deepen the replay
	// debt a crash victim has to pay.
	MaxWALBytes int64
	// MaxPartitionBacklog sheds ingest load once the served index holds
	// more than this many partitions (0 = unbounded): /extend answers
	// 503 + Retry-After until compaction catches up. The partition count
	// is the merge backlog — background compaction keeps ingest out of
	// the merge path, and this bound keeps a sustained burst from growing
	// the backlog (and per-query partition fan-out) without limit.
	MaxPartitionBacklog int
	// QueryTimeout bounds each /query's end-to-end processing time (0 =
	// unbounded). The deadline propagates into the engine's scan loops, so
	// a pathological query is cut off within a hair of the limit and
	// answered with a 504 JSON error instead of holding its goroutine and
	// scratch memory for seconds (cmd/ttserve: -query-timeout). A request
	// may lower (never raise) its own limit with ?timeout=.
	QueryTimeout time.Duration
	// ExtendTimeout bounds how long a /extend waits to become the active
	// writer (0 = unbounded). Ingests serialise on one lock, so a slow
	// build stalls the queue behind it; with a deadline the queued request
	// sheds with a 504 instead. Once a batch reaches the WAL it is always
	// fully applied — the deadline only covers the wait, never tears the
	// acknowledged⇒applied invariant (cmd/ttserve: -extend-timeout).
	ExtendTimeout time.Duration
}

// DefaultMaxExtendBytes is the default /extend body cap (64 MiB).
const DefaultMaxExtendBytes = 64 << 20

// DefaultSnapshotKeep is the default snapshot retention (newest K files).
const DefaultSnapshotKeep = 3

// retryAfterSeconds is the base Retry-After hint on 503 responses: overload
// (WAL or merge backlog over bound) clears on the next snapshot or
// compaction cycle — seconds, not milliseconds — while draining never
// clears, so the hint mainly keeps well-behaved clients from hammering a
// dying listener.
const retryAfterSeconds = 1

// retryAfterJitterSeconds is how many extra whole seconds RetryAfter spreads
// the hint over (the value is uniform in [base, base+jitter]).
const retryAfterJitterSeconds = 2

// RetryAfter renders a jittered Retry-After value. Every shed client gets
// the same fixed hint from a deterministic header, so an overload or drain
// that sheds a burst of requests at once would see the whole burst come back
// in lockstep one second later — the retry spike re-creates the overload.
// Spreading the hint over a few seconds de-synchronises the herd. Exported
// for cmd/ttserve's bootstrap handler, which sheds during recovery before
// any Server exists.
func RetryAfter() string {
	return strconv.Itoa(retryAfterSeconds + rand.Intn(retryAfterJitterSeconds+1))
}

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose client disconnected before the response was written.
// The client never sees it; it exists so access logs and counters separate
// "we were too slow" (504) from "they hung up" (499).
const StatusClientClosedRequest = 499

// FailpointQueryPanic names the fault-injection site inside the /query
// handler that the panic-isolation tests fire (see internal/failpoint): a
// panic injected here stands in for any handler bug, and must surface as a
// 500 on this request only, never a process crash.
const FailpointQueryPanic = "ttserve.query.panic"

// Response is the JSON shape of a /query answer.
type Response struct {
	MeanSeconds   float64       `json:"mean_seconds"`
	P05           float64       `json:"p05_seconds"`
	P50           float64       `json:"p50_seconds"`
	P95           float64       `json:"p95_seconds"`
	Empty         bool          `json:"empty,omitempty"` // no histogram mass; quantiles are zero
	SubQueries    []SubResponse `json:"sub_queries"`
	IndexScans    int           `json:"index_scans"`
	CacheHits     int           `json:"cache_hits"`
	CacheMisses   int           `json:"cache_misses"`
	Invalidations int           `json:"cache_invalidations,omitempty"`
	FullCacheHit  bool          `json:"full_cache_hit,omitempty"`
	Epoch         uint64        `json:"epoch"`
	Histogram     []Bucket      `json:"histogram"`
}

// Stats is the JSON shape of a /statsz answer: cumulative engine-level
// observability for capacity planning, cache tuning and ingest monitoring.
type Stats struct {
	Partitions             int     `json:"partitions"`
	Epoch                  uint64  `json:"epoch"`
	Trajectories           int     `json:"trajectories"`
	CacheHits              int64   `json:"cache_hits"`
	CacheMisses            int64   `json:"cache_misses"`
	CacheInvalidations     int64   `json:"cache_invalidations"`
	CacheEntries           int     `json:"cache_entries"`
	CacheHitRatio          float64 `json:"cache_hit_ratio"`
	FullCacheHits          int64   `json:"full_cache_hits"`
	FullCacheMisses        int64   `json:"full_cache_misses"`
	FullCacheInvalidations int64   `json:"full_cache_invalidations"`
	FullCacheEntries       int     `json:"full_cache_entries"`
	FullCacheHitRatio      float64 `json:"full_cache_hit_ratio"`
	CachePurges            int64   `json:"cache_purges"`
	FullCachePurges        int64   `json:"full_cache_purges"`
	IndexBytes             int     `json:"index_bytes"`
	ExtendEnabled          bool    `json:"extend_enabled"`
	Extends                int64   `json:"extends"`
	ExtendTrajectories     int64   `json:"extend_trajectories"`
	ExtendRejects          int64   `json:"extend_rejects"`
	ExtendOverloadRejects  int64   `json:"extend_overload_rejects"`
	LastExtendUnix         int64   `json:"last_extend_unix,omitempty"`
	Compactions            int64   `json:"compactions"`
	CompactionFailures     int64   `json:"compaction_failures,omitempty"`
	LastCompactionMerged   int64   `json:"last_compaction_merged_partitions"`
	LastCompactUnix        int64   `json:"last_compact_unix,omitempty"`
	SnapshotEpoch          uint64  `json:"snapshot_epoch"`
	LastSnapshotUnix       int64   `json:"last_snapshot_unix,omitempty"`
	SnapshotBytes          int64   `json:"snapshot_bytes,omitempty"`
	Ready                  bool    `json:"ready"`
	Draining               bool    `json:"draining,omitempty"`
	WALEnabled             bool    `json:"wal_enabled"`
	WALRecords             int     `json:"wal_records,omitempty"`
	WALBytes               int64   `json:"wal_bytes,omitempty"`
	WALAppends             int64   `json:"wal_appends,omitempty"`
	WALFsyncMsTotal        float64 `json:"wal_fsync_ms_total,omitempty"`
	WALRotations           int64   `json:"wal_rotations,omitempty"`
	WALRollbacks           int64   `json:"wal_rollbacks,omitempty"`
	QueryTimeouts          int64   `json:"query_timeouts"`
	CanceledRequests       int64   `json:"canceled_requests"`
	PanicsRecovered        int64   `json:"panics_recovered"`
	EncodeFailures         int64   `json:"encode_failures,omitempty"`
	WALFailed              int64   `json:"wal_failed"`
	DegradedMode           int64   `json:"degraded_mode"`
	DegradedCause          string  `json:"degraded_cause,omitempty"`
	Index                  string  `json:"index"`
}

// ExtendResponse is the JSON shape of a successful /extend answer.
type ExtendResponse struct {
	Trajectories int     `json:"trajectories"`
	Epoch        uint64  `json:"epoch"`
	Total        int     `json:"total_trajectories"`
	ElapsedMs    float64 `json:"elapsed_ms"`
}

// SnapshotResponse is the JSON shape of a /snapshot answer.
type SnapshotResponse struct {
	Path      string  `json:"path"`
	Bytes     int64   `json:"bytes"`
	Epoch     uint64  `json:"epoch"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// CompactResponse is the JSON shape of a /compact answer.
type CompactResponse struct {
	PartitionsBefore int     `json:"partitions_before"`
	PartitionsAfter  int     `json:"partitions_after"`
	Runs             int     `json:"merged_runs"`
	TrajsRebuilt     int     `json:"trajectories_rebuilt"`
	RecordsRebuilt   int     `json:"records_rebuilt"`
	Epoch            uint64  `json:"epoch"`
	ElapsedMs        float64 `json:"elapsed_ms"`
}

// ErrorResponse is the JSON error body of admission rejections.
type ErrorResponse struct {
	Error string `json:"error"`
}

// rejectJSON writes a JSON error with the given status.
func rejectJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// SubResponse describes one final sub-query.
type SubResponse struct {
	Segments int     `json:"segments"`
	Samples  int     `json:"samples"`
	MeanTT   float64 `json:"mean_seconds"`
	Fallback bool    `json:"speed_limit_fallback,omitempty"`
}

// Bucket is one histogram bucket [From, From+Width) with its mass share.
type Bucket struct {
	From     int     `json:"from_seconds"`
	Width    int     `json:"width_seconds"`
	Fraction float64 `json:"fraction"`
}

// Server carries the shared engine, the handler-level ingest counters
// surfaced in /statsz, and the snapshot persistence state. It implements
// http.Handler; WriteSnapshot is also callable directly so the process
// lifecycle (cmd/ttserve's graceful shutdown) can persist a final snapshot
// outside any HTTP request.
type Server struct {
	eng *pathhist.Engine
	cfg Config
	mux *http.ServeMux

	extends         atomic.Int64
	extendTrajs     atomic.Int64
	extendRejects   atomic.Int64
	extendOverloads atomic.Int64
	lastExtendUnix  atomic.Int64

	// ingestMu serialises the durable admission sequence — validate, WAL
	// append, index — so the log order is exactly the apply order. Without
	// a WAL the engine's own extend lock would suffice; with one, two
	// interleaved requests could otherwise log in one order and apply in
	// the other.
	ingestMu sync.Mutex

	// ready and draining drive /readyz and load-balancer behaviour: ready
	// starts true (a constructed Server has a fully recovered engine) and
	// flips false on BeginDrain; draining additionally turns the serving
	// endpoints into 503 + Retry-After so a rolling restart sheds clients
	// to peers instead of resetting their connections.
	ready    atomic.Bool
	draining atomic.Bool

	// snapshotMu serialises snapshot writes: concurrent triggers would
	// race on the same target file for no benefit (each write captures
	// the newest published epoch anyway).
	snapshotMu       sync.Mutex
	snapshotEpoch    atomic.Uint64
	snapshotBytes    atomic.Int64
	lastSnapshotUnix atomic.Int64

	// counters are the robustness counters exported on /statsz.
	counters metrics.ServerCounters

	// degraded latches the fail-stop read-only mode (DESIGN.md §12): once
	// the WAL reports a write/sync failure, the mutating endpoints shed
	// with 503 while reads keep serving the (healthy, in-memory) index.
	// The latch never clears in-process — the disk is suspect, and the
	// only trustworthy reset is a restart, whose recovery re-reads the log
	// from the bytes that actually made it down.
	degraded      atomic.Bool
	degradedCause atomic.Pointer[string]
}

// enterDegraded latches degraded read-only mode, recording the first cause.
func (s *Server) enterDegraded(cause error) {
	if s.degraded.CompareAndSwap(false, true) {
		msg := cause.Error()
		s.degradedCause.Store(&msg)
		s.counters.DegradedMode.Store(1)
		s.counters.WALFailed.Store(1)
	}
}

// Degraded reports whether the server latched read-only mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Counters exposes the robustness counters (shared, live — callers must
// only read).
func (s *Server) Counters() *metrics.ServerCounters { return &s.counters }

// checkWAL inspects the log's health after a failed WAL operation and
// latches degraded mode when the failure was the log's sticky fail-stop
// (as opposed to a transient admission error that left the log healthy).
func (s *Server) checkWAL(err error) {
	if log := s.cfg.WAL; log != nil && log.Failed() {
		s.enterDegraded(err)
	}
}

// NewHandler returns the service handler for an engine with the default
// configuration (ingestion disabled).
func NewHandler(eng *pathhist.Engine) http.Handler {
	return NewHandlerWith(eng, Config{})
}

// NewHandlerWith returns the service handler for an engine.
func NewHandlerWith(eng *pathhist.Engine, cfg Config) http.Handler {
	return NewServer(eng, cfg)
}

// NewServer returns the service for an engine.
func NewServer(eng *pathhist.Engine, cfg Config) *Server {
	if cfg.MaxExtendBytes <= 0 {
		cfg.MaxExtendBytes = DefaultMaxExtendBytes
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = DefaultSnapshotKeep
	}
	s := &Server{eng: eng, cfg: cfg, mux: http.NewServeMux()}
	s.ready.Store(true)
	// Liveness vs readiness: /healthz answers 200 as long as the process
	// serves HTTP at all (even draining — the process is alive), while
	// /readyz tells the load balancer whether to route here.
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
		if cfg.SnapshotDir != "" {
			s.mux.HandleFunc("/snapshot", s.snapshot)
		}
	}
	return s
}

// headerTracker remembers whether a handler already committed a response,
// so the panic-recovery path knows whether a 500 can still be written.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (h *headerTracker) WriteHeader(code int) {
	h.wrote = true
	h.ResponseWriter.WriteHeader(code)
}

func (h *headerTracker) Write(b []byte) (int, error) {
	h.wrote = true
	return h.ResponseWriter.Write(b)
}

// ServeHTTP dispatches to the service mux behind panic isolation: a panic
// in one handler — a bug tickled by one hostile request — is converted to a
// 500 on that request (when the response is still unwritten) and counted,
// instead of unwinding into net/http's connection teardown with the whole
// process's fate depending on what the panic corrupted. http.ErrAbortHandler
// is re-panicked: it is net/http's own sanctioned way to abort a response,
// not a bug.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &headerTracker{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.counters.PanicsRecovered.Add(1)
		if !tw.wrote {
			rejectJSON(tw.ResponseWriter, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", rec))
		}
	}()
	s.mux.ServeHTTP(tw, r)
}

// BeginDrain moves the server into its terminal draining state: /readyz
// flips to 503 and the serving endpoints (/query, /extend, /compact,
// /snapshot) answer 503 + Retry-After with a JSON error body instead of
// having their connections reset by the closing listener. Call it before
// http.Server.Shutdown so the load balancer stops routing here while
// in-flight requests finish.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.ready.Store(false)
}

// SetReady overrides the readiness bit (it starts true — a constructed
// Server wraps a fully recovered engine). BeginDrain clears it permanently.
func (s *Server) SetReady(v bool) { s.ready.Store(v && !s.draining.Load()) }

// readyz reports routability: 200 once recovery (snapshot load + WAL
// replay) is complete and the server is not draining, 503 otherwise.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() && !s.draining.Load() {
		w.WriteHeader(http.StatusOK)
		if s.degraded.Load() {
			// Still routable — reads serve fine — but operators watching
			// readiness probes should see the write path is gone.
			fmt.Fprintln(w, "ready (degraded: read-only after a write-ahead log failure)")
			return
		}
		fmt.Fprintln(w, "ready")
		return
	}
	w.Header().Set("Retry-After", RetryAfter())
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
}

// unavailable writes a 503 with a jittered Retry-After hint and a JSON
// error body.
func (s *Server) unavailable(w http.ResponseWriter, msg string) {
	unavailableJSON(w, msg)
}

// unavailableJSON is the shared 503 shape: jittered Retry-After hint plus a
// JSON error body (the single-engine Server and the sharded front emit the
// same wire format).
func unavailableJSON(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", RetryAfter())
	rejectJSON(w, http.StatusServiceUnavailable, msg)
}

// ingestOverload reports whether the server sheds ingest load right now:
// the write-ahead log outgrew its bound (a snapshot repays that debt) or
// the merge backlog did (compaction repays it). Checked before any work is
// done on an /extend, and by the sharded front before handing a routed
// batch to a shard.
func (s *Server) ingestOverload() (string, bool) {
	if max := s.cfg.MaxWALBytes; max > 0 && s.cfg.WAL != nil && s.cfg.WAL.Size() > max {
		return fmt.Sprintf(
			"write-ahead log holds %d bytes (bound %d); waiting for a snapshot to rotate it",
			s.cfg.WAL.Size(), max), true
	}
	if max := s.cfg.MaxPartitionBacklog; max > 0 && s.eng.Partitions() > max {
		return fmt.Sprintf(
			"index holds %d partitions (bound %d); waiting for compaction to catch up",
			s.eng.Partitions(), max), true
	}
	return "", false
}

// WriteSnapshot persists the currently published index snapshot as an
// epoch-named file in Config.SnapshotDir (atomic temp-file + rename),
// rotates the write-ahead log — the snapshot durably covers every batch up
// to its trajectory count, so those records are dead weight a crash victim
// would only re-skip — prunes old snapshot generations down to
// Config.SnapshotKeep (never the file the engine was loaded from), and
// records the outcome in the /statsz counters. It is the engine behind
// POST /snapshot, the periodic snapshot loop, and the final snapshot of a
// graceful shutdown.
//
// The order matters for crash safety: snapshot first (fsync + rename +
// directory fsync), then log rotation, then pruning. A crash between any
// two steps leaves extra durable state (stale WAL records a replay skips,
// an extra snapshot file), never missing state.
func (s *Server) WriteSnapshot() (SnapshotResponse, error) {
	if s.cfg.SnapshotDir == "" {
		return SnapshotResponse{}, fmt.Errorf("ttserve: no snapshot directory configured")
	}
	if s.degraded.Load() {
		// The disk already ate one write; a snapshot would trust it with
		// the whole index and then rotate away the log records that are
		// the only durable account of what was acknowledged.
		return SnapshotResponse{}, fmt.Errorf("ttserve: refusing snapshot in degraded mode (write-ahead log failed)")
	}
	s.snapshotMu.Lock()
	defer s.snapshotMu.Unlock()
	started := time.Now()
	st, err := s.eng.SnapshotFileIn(s.cfg.SnapshotDir)
	if err != nil {
		return SnapshotResponse{}, err
	}
	// The counters report what the file actually holds (the epoch pinned
	// inside SnapshotFileIn), not a re-read of engine state that a racing
	// extend may already have advanced.
	s.snapshotEpoch.Store(st.Epoch)
	s.snapshotBytes.Store(st.Bytes)
	s.lastSnapshotUnix.Store(time.Now().Unix())
	resp := SnapshotResponse{
		Path:  st.Path,
		Bytes: st.Bytes,
		Epoch: st.Epoch,
	}
	if log := s.cfg.WAL; log != nil {
		if err := log.TruncateCovered(uint64(st.Trajectories)); err != nil {
			// The snapshot itself is durable; a rotation failure only means
			// the log keeps covered records (replay skips them). But if the
			// failure latched the log's fail-stop state, the write path
			// must close with it.
			s.checkWAL(err)
			resp.ElapsedMs = float64(time.Since(started).Microseconds()) / 1000
			return resp, fmt.Errorf("ttserve: rotating WAL after snapshot: %w", err)
		}
	}
	// Pin both the configured restore file and the file the engine is
	// serving over a mapping. They usually coincide, but an engine mapped
	// from an explicit -load-snapshot path inside the snapshot dir has no
	// LoadedSnapshotPath pin, and deleting a mapped file silently breaks
	// the next restart's re-open even though the running process keeps
	// serving (the unlinked inode stays alive on unix).
	if _, err := pathhist.PruneSnapshots(s.cfg.SnapshotDir, s.cfg.SnapshotKeep,
		s.cfg.LoadedSnapshotPath, s.eng.MappedSnapshotPath()); err != nil {
		resp.ElapsedMs = float64(time.Since(started).Microseconds()) / 1000
		return resp, err
	}
	resp.ElapsedMs = float64(time.Since(started).Microseconds()) / 1000
	return resp, nil
}

// snapshot handles POST /snapshot: persist the served index now. Gated by
// EnableExtend + SnapshotDir (see Config).
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST to /snapshot to persist the served index")
		return
	}
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	if s.degraded.Load() {
		s.unavailable(w, "server is degraded (read-only) after a write-ahead log failure; restart to recover")
		return
	}
	resp, err := s.WriteSnapshot()
	if err != nil {
		rejectJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) statsz(w http.ResponseWriter, r *http.Request) {
	st := s.statsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// statsSnapshot assembles the /statsz payload. The sharded front calls it
// once per shard to build its aggregated view.
func (s *Server) statsSnapshot() Stats {
	cs := s.eng.CacheStats()
	fs := s.eng.FullCacheStats()
	c, wt, user, forest := s.eng.IndexMemory()
	compactions, lastCompaction := s.eng.CompactionInfo()
	st := Stats{
		Partitions:             s.eng.Partitions(),
		Epoch:                  s.eng.Epoch(),
		Trajectories:           s.eng.Trajectories(),
		CacheHits:              cs.Hits,
		CacheMisses:            cs.Misses,
		CacheInvalidations:     cs.Invalidations,
		CacheEntries:           cs.Entries,
		FullCacheHits:          fs.Hits,
		FullCacheMisses:        fs.Misses,
		FullCacheInvalidations: fs.Invalidations,
		FullCacheEntries:       fs.Entries,
		CachePurges:            cs.Purges,
		FullCachePurges:        fs.Purges,
		IndexBytes:             c + wt + user + forest,
		ExtendEnabled:          s.cfg.EnableExtend,
		Extends:                s.extends.Load(),
		ExtendTrajectories:     s.extendTrajs.Load(),
		ExtendRejects:          s.extendRejects.Load(),
		ExtendOverloadRejects:  s.extendOverloads.Load(),
		LastExtendUnix:         s.lastExtendUnix.Load(),
		Compactions:            compactions,
		CompactionFailures:     s.eng.CompactionFailures(),
		LastCompactionMerged:   int64(lastCompaction.PartitionsBefore - lastCompaction.PartitionsAfter),
		LastCompactUnix:        lastCompaction.CompletedUnix,
		SnapshotEpoch:          s.snapshotEpoch.Load(),
		LastSnapshotUnix:       s.lastSnapshotUnix.Load(),
		SnapshotBytes:          s.snapshotBytes.Load(),
		Ready:                  s.ready.Load(),
		Draining:               s.draining.Load(),
		WALEnabled:             s.cfg.WAL != nil,
		Index:                  s.eng.IndexInfo(),
	}
	cv := s.counters.Snapshot()
	st.QueryTimeouts = cv.QueryTimeouts
	st.CanceledRequests = cv.CanceledRequests
	st.PanicsRecovered = cv.PanicsRecovered
	st.EncodeFailures = cv.EncodeFailures
	st.WALFailed = cv.WALFailed
	st.DegradedMode = cv.DegradedMode
	if cause := s.degradedCause.Load(); cause != nil {
		st.DegradedCause = *cause
	}
	if log := s.cfg.WAL; log != nil {
		ws := log.Stats()
		st.WALRecords = ws.Records
		st.WALBytes = ws.Bytes
		st.WALAppends = ws.Appends
		st.WALFsyncMsTotal = float64(ws.FsyncNanos) / 1e6
		st.WALRotations = ws.Rotations
		st.WALRollbacks = ws.Rollbacks
		if ws.Failed && st.WALFailed == 0 {
			// The log failed outside a request path this server drove
			// (defence in depth): surface it even before a handler trips.
			st.WALFailed = 1
		}
	}
	if total := cs.Hits + cs.Misses; total > 0 {
		st.CacheHitRatio = float64(cs.Hits) / float64(total)
	}
	if total := fs.Hits + fs.Misses; total > 0 {
		st.FullCacheHitRatio = float64(fs.Hits) / float64(total)
	}
	return st
}

// parseTimeout reads a ?timeout= value: a Go duration string ("50ms",
// "1.5s") or a bare integer meaning milliseconds.
func parseTimeout(raw string) (time.Duration, error) {
	if ms, err := strconv.Atoi(raw); err == nil {
		if ms <= 0 {
			return 0, fmt.Errorf("bad timeout %q: must be positive", raw)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q: want a positive duration like 50ms", raw)
	}
	return d, nil
}

// requestDeadline resolves the effective deadline for a request: the
// configured server limit, lowered (never raised) by a ?timeout= parameter.
// It returns the derived context and its cancel func (both unchanged when
// no limit applies).
func requestDeadline(r *http.Request, limit time.Duration) (context.Context, context.CancelFunc, time.Duration, error) {
	ctx := r.Context()
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := parseTimeout(raw)
		if err != nil {
			return ctx, nil, 0, err
		}
		if limit == 0 || d < limit {
			limit = d
		}
	}
	if limit <= 0 {
		return ctx, nil, 0, nil
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	return ctx, cancel, limit, nil
}

// serveQuery is the one /query handler body, shared by Server and
// ShardedServer: drain shedding, parameter parsing, the request deadline,
// the fault-injection site, the front's answer, the error → status mapping,
// and a fail-closed encode. answer returns the value to marshal.
func serveQuery(w http.ResponseWriter, r *http.Request, draining bool, timeout time.Duration,
	ctr *metrics.ServerCounters, answer func(context.Context, pathhist.Query) (any, error)) {
	if draining {
		// A draining listener used to just close on clients mid-restart;
		// a 503 with Retry-After lets them fail over cleanly instead.
		unavailableJSON(w, "server is draining")
		return
	}
	q, err := parseQuery(r)
	if err != nil {
		rejectJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, limit, err := requestDeadline(r, timeout)
	if err != nil {
		rejectJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if cancel != nil {
		defer cancel()
	}
	if err := failpoint.Inject(FailpointQueryPanic); err != nil {
		// The site exists for panic injection; an error injection surfaces
		// as a plain 500 so tests can also drive that path.
		rejectJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := answer(ctx, q)
	if err != nil {
		switch {
		case errors.Is(err, sharded.ErrInsufficientCoverage):
			// Too many shards out to answer honestly: shed, like any other
			// overload, and let the client retry once shards recover.
			unavailableJSON(w, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			// The query, not the client, ran out of time: the engine
			// abandoned its scans at the deadline and freed its scratch
			// state; nothing partial was computed or cached.
			ctr.QueryTimeouts.Add(1)
			rejectJSON(w, http.StatusGatewayTimeout,
				fmt.Sprintf("query exceeded its %v deadline", limit))
		case errors.Is(err, context.Canceled):
			// The client hung up; the status is for logs and counters only.
			ctr.CanceledRequests.Add(1)
			rejectJSON(w, StatusClientClosedRequest, "client closed the request")
		default:
			rejectJSON(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	// Encode before any header goes out: a result json cannot represent
	// (non-finite histogram mass on a very long path) must be a 500 with a
	// reason, never a 200 whose body stops at zero bytes.
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(resp); err != nil {
		ctr.EncodeFailures.Add(1)
		rejectJSON(w, http.StatusInternalServerError, fmt.Sprintf("encoding the answer: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body.Bytes()) // a failed write means the client is gone
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	serveQuery(w, r, s.draining.Load(), s.cfg.QueryTimeout, &s.counters,
		func(ctx context.Context, q pathhist.Query) (any, error) {
			res, err := s.eng.QueryCtx(ctx, q)
			if err != nil {
				return nil, err
			}
			return toResponse(res), nil
		})
}

// extend ingests a trajectory batch: the request body is the traj binary
// format (pathhist.Store.WriteTo / ReadStore — the same bytes ttgen writes
// to trajectories.bin). Malformed bodies are 400s; well-formed batches the
// engine rejects (e.g. overlapping the indexed time range) are 422s; an
// overloaded or draining server sheds with 503 + Retry-After before doing
// any work. With a WAL configured, the 200 is only written after the batch
// is fsynced to the log and indexed (see ingest).
func (s *Server) extend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST a traj-format batch to /extend")
		return
	}
	if s.draining.Load() {
		s.extendOverloads.Add(1)
		s.unavailable(w, "server is draining")
		return
	}
	if s.degraded.Load() {
		// Fail-stop: the WAL can no longer make batches durable, so no
		// batch is acknowledged. Reads keep serving; the write path stays
		// closed until a restart re-establishes a trustworthy log.
		s.extendRejects.Add(1)
		s.unavailable(w, "server is degraded (read-only) after a write-ahead log failure; restart to recover")
		return
	}
	// Overload shedding, checked before the body is even read: both
	// conditions are repay-the-debt signals (a snapshot rotates the log, a
	// compaction cycle shrinks the backlog), so the honest answer is
	// "retry shortly", not a slow accept that deepens the hole.
	if msg, shed := s.ingestOverload(); shed {
		s.extendOverloads.Add(1)
		s.unavailable(w, msg)
		return
	}
	started := time.Now()
	// The raw bytes are read once and decoded from memory: the WAL logs
	// exactly the bytes the client sent (replay re-decodes them), so the
	// decode and the log entry can never disagree.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxExtendBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Admission control, byte budget: the request exceeded the
			// configured body cap — a client-side sizing problem, reported
			// as 413 with a machine-readable body so batch producers can
			// split and retry.
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
		// Admission control, trajectory budget: indexing runs in the
		// request goroutine under the serialised extend lock, so one huge
		// batch would stall every later ingest for its whole build time.
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
	st, status, err := s.ingest(ctx, raw, batch)
	if err != nil {
		s.extendRejects.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			s.counters.QueryTimeouts.Add(1)
			status = http.StatusGatewayTimeout
			err = fmt.Errorf("extend timed out after %v waiting for the writer lock; no batch was acknowledged", s.cfg.ExtendTimeout)
		} else if errors.Is(err, context.Canceled) {
			s.counters.CanceledRequests.Add(1)
			status = StatusClientClosedRequest
		}
		rejectJSON(w, status, err.Error())
		return
	}
	s.extends.Add(1)
	s.extendTrajs.Add(int64(batch.Len()))
	s.lastExtendUnix.Store(time.Now().Unix())
	w.Header().Set("Content-Type", "application/json")
	// The response reports the publication this batch produced (from
	// IngestStats), not a re-read of engine state a concurrent extend may
	// already have advanced.
	_ = json.NewEncoder(w).Encode(ExtendResponse{
		Trajectories: batch.Len(),
		Epoch:        st.Epoch,
		Total:        st.TotalTrajectories,
		ElapsedMs:    float64(time.Since(started).Microseconds()) / 1000,
	})
}

// ingest runs the durable admission sequence for one batch under the
// ingest lock: validate, append to the WAL (fsynced), then index. The
// returned status is the HTTP code to report alongside a non-nil error.
//
// The ordering is the durability contract. Validation runs first so the
// log never records a batch replay would refuse; the fsynced append runs
// before Extend so an acknowledged batch is on disk before any client can
// observe it (acknowledged ⇒ fsynced ⇒ recovered); and if Extend still
// fails after validation passed, the fresh record is rolled back so the
// log stays exactly the applied history.
// The context only guards the entry points — the wait for the ingest lock
// and the moment before the WAL append. Once a batch's record is fsynced,
// the sequence always runs to the publication: aborting between append and
// Extend would leave a logged-but-unapplied record, breaking the invariant
// that the log is exactly the applied history.
func (s *Server) ingest(ctx context.Context, raw []byte, batch *pathhist.Store) (pathhist.IngestStats, int, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	log := s.cfg.WAL
	if log == nil {
		st, err := s.eng.ExtendCtx(ctx, batch)
		if err != nil {
			return st, http.StatusUnprocessableEntity, err
		}
		return st, http.StatusOK, nil
	}
	if err := ctx.Err(); err != nil {
		// The wait for a slow predecessor consumed the deadline; nothing
		// was logged or applied, so shedding here is clean.
		return pathhist.IngestStats{}, http.StatusGatewayTimeout, err
	}
	if err := s.eng.ValidateExtend(batch); err != nil {
		return pathhist.IngestStats{}, http.StatusUnprocessableEntity, err
	}
	if err := log.Append(uint64(s.eng.Trajectories()), batch.Len(), raw); err != nil {
		// A batch that cannot be made durable is not acknowledged — the
		// failure is the server's (disk trouble), not the client's. A
		// write/sync failure latches the log's fail-stop state; mirror it
		// into degraded read-only serving.
		s.checkWAL(err)
		return pathhist.IngestStats{}, http.StatusInternalServerError,
			fmt.Errorf("write-ahead log: %v", err)
	}
	st, err := s.eng.Extend(batch)
	if err != nil {
		// Validation mirrors Extend's admission checks, so this is a
		// should-not-happen path — but the log must not keep a record the
		// index refused.
		if rbErr := log.RollbackLast(); rbErr != nil {
			s.checkWAL(rbErr)
			return st, http.StatusInternalServerError,
				fmt.Errorf("%v (and rolling back its WAL record failed: %v)", err, rbErr)
		}
		return st, http.StatusUnprocessableEntity, err
	}
	return st, http.StatusOK, nil
}

// ReplayWAL applies every logged record the restored engine does not
// already cover, in log order, and returns how many batches it applied.
// Records are correlated on trajectory totals: a record whose end
// (PrevTotal+Trajs) the engine already holds is skipped — the snapshot
// covers it, and a crash between snapshot and log rotation leaves exactly
// such records — and the first uncovered record must start at the engine's
// current total. Anything else (a gap, a partial overlap) means the log
// does not descend from the restored snapshot — a mispaired -wal-path /
// snapshot-dir — and replay fails closed rather than serve a state no
// client was ever acknowledged.
func ReplayWAL(eng *pathhist.Engine, log *wal.WAL) (int, error) {
	recs, err := log.Records()
	if err != nil {
		return 0, err
	}
	total := uint64(eng.Trajectories())
	applied := 0
	for i, rec := range recs {
		end := rec.PrevTotal + uint64(rec.Trajs)
		if end <= total {
			continue // durably covered by the snapshot already
		}
		if rec.PrevTotal != total {
			return applied, fmt.Errorf(
				"ttserve: wal record %d spans trajectories %d..%d but the index holds %d: log does not match the restored snapshot",
				i, rec.PrevTotal, end, total)
		}
		batch, err := pathhist.ReadStore(bytes.NewReader(rec.Batch))
		if err != nil {
			return applied, fmt.Errorf("ttserve: decoding wal record %d: %w", i, err)
		}
		if batch.Len() != int(rec.Trajs) {
			return applied, fmt.Errorf("ttserve: wal record %d holds %d trajectories, header says %d",
				i, batch.Len(), rec.Trajs)
		}
		if _, err := eng.Extend(batch); err != nil {
			return applied, fmt.Errorf("ttserve: replaying wal record %d: %w", i, err)
		}
		total = end
		applied++
	}
	return applied, nil
}

// compact triggers partition compaction: the engine merges the temporal
// partitions accumulated by /extend batches back into few large ones and
// publishes the result as a new epoch, off the serving path. Idempotent —
// when nothing needs merging the response reports an unchanged layout.
func (s *Server) compact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rejectJSON(w, http.StatusMethodNotAllowed, "POST to /compact to merge ingested partitions")
		return
	}
	if s.draining.Load() {
		s.unavailable(w, "server is draining")
		return
	}
	if s.degraded.Load() {
		// Compaction is safe for the in-memory index, but it advances the
		// epoch and invites a snapshot of state the broken log no longer
		// anchors; in fail-stop mode, do nothing but serve reads.
		s.unavailable(w, "server is degraded (read-only) after a write-ahead log failure; restart to recover")
		return
	}
	st, err := s.eng.Compact()
	if err != nil {
		rejectJSON(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The response reports the epoch of this compaction's own publication
	// (from CompactionStats), not a re-read of engine state a concurrent
	// extend may already have advanced.
	_ = json.NewEncoder(w).Encode(CompactResponse{
		PartitionsBefore: st.PartitionsBefore,
		PartitionsAfter:  st.PartitionsAfter,
		Runs:             st.Runs,
		TrajsRebuilt:     st.TrajsRebuilt,
		RecordsRebuilt:   st.RecordsRebuilt,
		Epoch:            st.Epoch,
		ElapsedMs:        float64(st.Elapsed.Microseconds()) / 1000,
	})
}

// parseQuery decodes the /query parameters.
func parseQuery(r *http.Request) (pathhist.Query, error) {
	var q pathhist.Query
	raw := r.URL.Query().Get("path")
	if raw == "" {
		return q, fmt.Errorf("missing ?path=<edge,edge,...>")
	}
	for _, tok := range strings.Split(raw, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || id < 0 {
			return q, fmt.Errorf("bad edge id %q", tok)
		}
		q.Path = append(q.Path, pathhist.EdgeID(id))
	}
	tod := r.URL.Query().Get("tod")
	from, hasFrom := r.URL.Query().Get("from"), false
	until, hasUntil := r.URL.Query().Get("until"), false
	if tod != "" && (from != "" || until != "") {
		return q, fmt.Errorf("tod is mutually exclusive with from/until")
	}
	if tod != "" {
		parts := strings.SplitN(tod, ":", 2)
		if len(parts) != 2 {
			return q, fmt.Errorf("bad tod %q, want HH:MM", tod)
		}
		hh, err1 := strconv.Atoi(parts[0])
		mm, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || hh < 0 || hh > 23 || mm < 0 || mm > 59 {
			return q, fmt.Errorf("bad tod %q", tod)
		}
		q.Periodic = true
		q.Around = int64(hh*3600 + mm*60)
	}
	if from != "" {
		v, err := strconv.ParseInt(from, 10, 64)
		if err != nil || v < 0 {
			return q, fmt.Errorf("bad from %q", from)
		}
		q.From, hasFrom = v, true
	}
	if until != "" {
		v, err := strconv.ParseInt(until, 10, 64)
		if err != nil || v <= 0 {
			return q, fmt.Errorf("bad until %q", until)
		}
		q.Until, hasUntil = v, true
	}
	if hasFrom && hasUntil && q.Until <= q.From {
		return q, fmt.Errorf("until (%d) must be greater than from (%d)", q.Until, q.From)
	}
	if ws := r.URL.Query().Get("window"); ws != "" {
		if tod == "" {
			return q, fmt.Errorf("window requires tod")
		}
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil || w <= 0 {
			return q, fmt.Errorf("bad window %q", ws)
		}
		q.WindowSeconds = w
	}
	if bs := r.URL.Query().Get("beta"); bs != "" {
		b, err := strconv.Atoi(bs)
		if err != nil || b < 0 {
			return q, fmt.Errorf("bad beta %q", bs)
		}
		q.Beta = b
	}
	if us := r.URL.Query().Get("user"); us != "" {
		u, err := strconv.Atoi(us)
		if err != nil || u < 0 {
			return q, fmt.Errorf("bad user %q", us)
		}
		q.FilterUser = true
		q.User = pathhist.UserID(u)
	}
	return q, nil
}

func toResponse(res *pathhist.Result) Response {
	out := Response{
		MeanSeconds:   res.MeanSeconds,
		IndexScans:    res.IndexScans,
		CacheHits:     res.CacheHits,
		CacheMisses:   res.CacheMisses,
		Invalidations: res.CacheInvalidations,
		FullCacheHit:  res.FullCacheHit,
		Epoch:         res.Epoch,
	}
	for _, s := range res.Subs {
		out.SubQueries = append(out.SubQueries, SubResponse{
			Segments: len(s.Path),
			Samples:  s.Samples,
			MeanTT:   s.MeanTT,
			Fallback: s.Fallback,
		})
	}
	fillHistogram(&out, res.Histogram)
	return out
}

// fillHistogram renders a histogram into the response's quantiles and
// buckets. A zero-mass histogram would make every Fraction 0/0 = NaN, which
// json cannot encode (serveQuery would answer 500) — the emptiness is
// flagged instead.
func fillHistogram(out *Response, h *pathhist.Histogram) {
	if h == nil || h.Total() == 0 {
		out.Empty = true
		return
	}
	out.P05 = h.Quantile(0.05)
	out.P50 = h.Quantile(0.5)
	out.P95 = h.Quantile(0.95)
	w := h.BucketWidth()
	total := h.Total()
	lo := h.Min() / w * w
	for b := lo; b <= h.Max(); b += w {
		if m := h.Count(b); m > 0 {
			out.Histogram = append(out.Histogram, Bucket{
				From: b, Width: w, Fraction: m / total,
			})
		}
	}
}
