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
	"net/url"
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

// writeJSON answers with v as the JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// rejectJSON writes a JSON error with the given status.
func rejectJSON(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
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

// front is what genuinely differs between the single-engine Server and the
// sharded front: which engine answers /query, how a batch finds its shard,
// and the wire shapes. Everything else is the core's.
type front interface {
	// readyLine is the body of a 200 /readyz.
	readyLine() string
	// answer returns the value to marshal for one /query.
	answer(ctx context.Context, q pathhist.Query) (any, error)
	statsz(w http.ResponseWriter, r *http.Request)
	extend(w http.ResponseWriter, r *http.Request)
	compact(w http.ResponseWriter, r *http.Request)
	snapshot(w http.ResponseWriter, r *http.Request)
}

// core is the HTTP front both servers embed, written once: the mux,
// liveness and readiness, the drain state, panic isolation, the POST/drain
// gate of the mutating endpoints, /extend's admission preamble, the /query
// body and the mapping of context errors to statuses and counters.
type core struct {
	f        front
	cfg      Config
	mux      *http.ServeMux
	shards   []*Shard
	counters *metrics.ServerCounters

	extendRejects   atomic.Int64
	extendOverloads atomic.Int64

	// ready and draining drive /readyz and load-balancer behaviour: ready
	// starts true (a constructed front has fully recovered engines) and
	// flips false on BeginDrain; draining additionally turns the serving
	// endpoints into 503 + Retry-After so a rolling restart sheds clients
	// to peers instead of resetting their connections.
	ready    atomic.Bool
	draining atomic.Bool
}

// init wires the routes. The mutating endpoints exist only behind
// EnableExtend, and /snapshot only when the shards have somewhere to write.
func (c *core) init(f front, cfg Config, counters *metrics.ServerCounters, shards []*Shard) {
	if cfg.MaxExtendBytes <= 0 {
		cfg.MaxExtendBytes = DefaultMaxExtendBytes
	}
	c.f, c.cfg, c.counters, c.shards, c.mux = f, cfg, counters, shards, http.NewServeMux()
	c.ready.Store(true)
	// Liveness vs readiness: /healthz answers 200 as long as the process
	// serves HTTP at all (even draining — the process is alive), while
	// /readyz tells the load balancer whether to route here.
	c.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	c.mux.HandleFunc("/readyz", c.readyz)
	c.mux.HandleFunc("/statsz", f.statsz)
	c.mux.HandleFunc("/query", c.query)
	if cfg.EnableExtend {
		c.mux.HandleFunc("/extend", c.mutating("POST a traj-format batch to /extend", &c.extendOverloads, f.extend))
		c.mux.HandleFunc("/compact", c.mutating("POST to /compact to merge ingested partitions", nil, f.compact))
		if shards[0].cfg.SnapshotDir != "" {
			c.mux.HandleFunc("/snapshot", c.mutating("POST to /snapshot to persist the served index", nil, f.snapshot))
		}
	}
}

// Counters exposes the robustness counters (shared, live — callers must
// only read).
func (c *core) Counters() *metrics.ServerCounters { return c.counters }

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
func (c *core) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &headerTracker{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		c.counters.PanicsRecovered.Add(1)
		if !tw.wrote {
			rejectJSON(tw.ResponseWriter, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", rec))
		}
	}()
	c.mux.ServeHTTP(tw, r)
}

// BeginDrain moves the front into its terminal draining state: /readyz
// flips to 503 and the serving endpoints (/query, /extend, /compact,
// /snapshot) answer 503 + Retry-After with a JSON error body instead of
// having their connections reset by the closing listener. Call it before
// http.Server.Shutdown so the load balancer stops routing here while
// in-flight requests finish.
func (c *core) BeginDrain() {
	c.draining.Store(true)
	c.ready.Store(false)
}

// SetReady overrides the readiness bit (it starts true — a constructed
// front wraps fully recovered engines). BeginDrain clears it permanently.
func (c *core) SetReady(v bool) { c.ready.Store(v && !c.draining.Load()) }

// readyz reports routability: 200 once recovery (snapshot load + WAL
// replay) is complete and the server is not draining, 503 otherwise.
func (c *core) readyz(w http.ResponseWriter, r *http.Request) {
	if !c.ready.Load() || c.draining.Load() {
		w.Header().Set("Retry-After", RetryAfter())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, c.f.readyLine())
}

// unavailableJSON is the 503 shape: jittered Retry-After hint plus a JSON
// error body.
func unavailableJSON(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", RetryAfter())
	rejectJSON(w, http.StatusServiceUnavailable, msg)
}

// mutating gates a state-changing endpoint: POST only, and 503 +
// Retry-After once draining — a draining listener used to just close on
// clients mid-restart; the 503 lets them fail over cleanly instead. shed,
// when non-nil, counts the drained requests.
func (c *core) mutating(hint string, shed *atomic.Int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			rejectJSON(w, http.StatusMethodNotAllowed, hint)
			return
		}
		if c.draining.Load() {
			if shed != nil {
				shed.Add(1)
			}
			unavailableJSON(w, "server is draining")
			return
		}
		h(w, r)
	}
}

// rejectCtxErr maps a request-context error to its status and counter:
// 504 when the deadline (timeoutMsg says whose) fired, 499 when the client
// hung up — that status is for logs and counters only. It reports whether
// err was one of the two.
func (c *core) rejectCtxErr(w http.ResponseWriter, err error, timeoutMsg string) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		c.counters.QueryTimeouts.Add(1)
		rejectJSON(w, http.StatusGatewayTimeout, timeoutMsg)
	case errors.Is(err, context.Canceled):
		c.counters.CanceledRequests.Add(1)
		rejectJSON(w, StatusClientClosedRequest, "client closed the request")
	default:
		return false
	}
	return true
}

// admitted is one /extend batch past the admission preamble.
type admitted struct {
	// ctx carries the extend timeout; cancel must be called when done.
	ctx     context.Context
	cancel  context.CancelFunc
	raw     []byte
	batch   *pathhist.Store
	started time.Time
}

// admitBatch is /extend's admission preamble: byte budget, decode,
// trajectory budget, extend timeout. The request body is the traj binary
// format (pathhist.Store.WriteTo / ReadStore — the same bytes ttgen writes
// to trajectories.bin). On a refusal the response is already written and ok
// is false.
func (c *core) admitBatch(w http.ResponseWriter, r *http.Request) (b admitted, ok bool) {
	b.started = time.Now()
	// The raw bytes are read once and decoded from memory: the WAL logs
	// exactly the bytes the client sent (replay re-decodes them), so the
	// decode and the log entry can never disagree.
	var err error
	b.raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxExtendBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Byte budget: a client-side sizing problem, reported as 413
			// with a machine-readable body so batch producers can split
			// and retry.
			c.extendOverloads.Add(1)
			rejectJSON(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds the %d-byte limit; split it into smaller batches", tooBig.Limit))
			return b, false
		}
		c.extendRejects.Add(1)
		rejectJSON(w, http.StatusBadRequest, fmt.Sprintf("reading batch: %v", err))
		return b, false
	}
	b.batch, err = pathhist.ReadStore(bytes.NewReader(b.raw))
	if err != nil {
		c.extendRejects.Add(1)
		rejectJSON(w, http.StatusBadRequest, fmt.Sprintf("decoding batch: %v", err))
		return b, false
	}
	if max := c.cfg.MaxExtendTrajectories; max > 0 && b.batch.Len() > max {
		// Trajectory budget: indexing runs in the request goroutine under
		// the serialised extend lock, so one huge batch would stall every
		// later ingest for its whole build time.
		c.extendOverloads.Add(1)
		rejectJSON(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch holds %d trajectories, limit is %d; split it into smaller batches", b.batch.Len(), max))
		return b, false
	}
	b.ctx, b.cancel = r.Context(), func() {}
	if c.cfg.ExtendTimeout > 0 {
		b.ctx, b.cancel = context.WithTimeout(b.ctx, c.cfg.ExtendTimeout)
	}
	return b, true
}

// rejectIngest answers a failed ingest: a context error by rejectCtxErr,
// anything else with the status the shard (or the router) chose.
func (c *core) rejectIngest(w http.ResponseWriter, status int, err error) {
	c.extendRejects.Add(1)
	if !c.rejectCtxErr(w, err, fmt.Sprintf(
		"extend timed out after %v waiting for the writer lock; no batch was acknowledged", c.cfg.ExtendTimeout)) {
		rejectJSON(w, status, err.Error())
	}
}

// acknowledged is the single-engine part of a successful /extend answer. It
// reports the publication this batch produced (from IngestStats), not a
// re-read of engine state a concurrent extend may already have advanced.
func (b *admitted) acknowledged(st pathhist.IngestStats) ExtendResponse {
	return ExtendResponse{
		Trajectories: b.batch.Len(),
		Epoch:        st.Epoch,
		Total:        st.TotalTrajectories,
		ElapsedMs:    msSince(b.started),
	}
}

// shardStats is shard i's /statsz entry stamped with the front's lifecycle
// bits.
func (c *core) shardStats(i int) Stats {
	st := c.shards[i].statsSnapshot()
	st.Ready, st.Draining = c.ready.Load(), c.draining.Load()
	return st
}

// ShardSnapshotResult is one shard's entry in a WriteSnapshots answer.
type ShardSnapshotResult struct {
	Shard int `json:"shard"`
	SnapshotResponse
	Error string `json:"error,omitempty"`
}

// WriteSnapshots persists every shard's index to its own snapshot
// directory (rotating its WAL). Shards fail independently: a full disk
// under one shard must not stop the others from bounding their replay
// debt. The first error is returned after every shard was attempted.
func (c *core) WriteSnapshots() ([]ShardSnapshotResult, error) {
	out := make([]ShardSnapshotResult, len(c.shards))
	var firstErr error
	for i, sh := range c.shards {
		resp, err := sh.WriteSnapshot()
		out[i] = ShardSnapshotResult{Shard: i, SnapshotResponse: resp}
		if err != nil {
			out[i].Error = err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return out, firstErr
}

// query is the one /query handler body: drain shedding, parameter parsing,
// the request deadline, the fault-injection site, the front's answer, the
// error → status mapping, and a fail-closed encode.
func (c *core) query(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		unavailableJSON(w, "server is draining")
		return
	}
	params := r.URL.Query()
	q, err := parseQuery(params)
	if err != nil {
		rejectJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, limit, err := requestDeadline(r.Context(), params.Get("timeout"), c.cfg.QueryTimeout)
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
	resp, err := c.f.answer(ctx, q)
	if err != nil {
		if errors.Is(err, sharded.ErrInsufficientCoverage) {
			// Too many shards out to answer honestly: shed, like any other
			// overload, and let the client retry once shards recover.
			unavailableJSON(w, err.Error())
		} else if !c.rejectCtxErr(w, err, fmt.Sprintf("query exceeded its %v deadline", limit)) {
			// (On a deadline the engine abandoned its scans and freed its
			// scratch state; nothing partial was computed or cached.)
			rejectJSON(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	// Encode before any header goes out: a result json cannot represent
	// (non-finite histogram mass on a very long path) must be a 500 with a
	// reason, never a 200 whose body stops at zero bytes.
	body := bodyPool.Get().(*bytes.Buffer)
	defer putBody(body)
	if err := json.NewEncoder(body).Encode(resp); err != nil {
		c.counters.EncodeFailures.Add(1)
		rejectJSON(w, http.StatusInternalServerError, fmt.Sprintf("encoding the answer: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body.Bytes()) // a failed write means the client is gone
}

// bodyPool recycles the /query encode buffers: a buffer grown to one
// answer's size serves the next answer without growing again. Write copies
// the bytes out (into the connection's buffer) before a buffer is returned.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps what the pool keeps, so one outsized answer does not
// pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

func putBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyPool.Put(b)
}

// Server is the single-engine front: the core over one Shard, answering
// /query from that shard's engine with its estimator and both result caches
// (which a scatter-gather merge cannot use — DESIGN.md §14).
type Server struct {
	core
	*Shard
}

// NewServer returns the single-engine service for an engine.
func NewServer(eng *pathhist.Engine, cfg Config) *Server {
	s := &Server{Shard: NewShard(eng, cfg)}
	s.init(s, cfg, &metrics.ServerCounters{}, []*Shard{s.Shard})
	s.onDegraded = func() {
		s.counters.DegradedMode.Store(1)
		s.counters.WALFailed.Store(1)
	}
	return s
}

func (s *Server) readyLine() string {
	if s.Degraded() {
		// Still routable — reads serve fine — but operators watching
		// readiness probes should see the write path is gone.
		return "ready (degraded: read-only after a write-ahead log failure)"
	}
	return "ready"
}

func (s *Server) answer(ctx context.Context, q pathhist.Query) (any, error) {
	res, err := s.eng.QueryCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	return toResponse(res), nil
}

func (s *Server) statsz(w http.ResponseWriter, r *http.Request) {
	st := s.shardStats(0)
	st.ExtendRejects = s.extendRejects.Load()
	st.ExtendOverloadRejects = s.extendOverloads.Load()
	st.QueryTimeouts = s.counters.QueryTimeouts.Load()
	st.CanceledRequests = s.counters.CanceledRequests.Load()
	st.PanicsRecovered = s.counters.PanicsRecovered.Load()
	st.EncodeFailures = s.counters.EncodeFailures.Load()
	writeJSON(w, http.StatusOK, st)
}

// extend ingests a trajectory batch. Malformed bodies are 400s; well-formed
// batches the engine rejects (e.g. overlapping the indexed time range) are
// 422s; an overloaded server sheds with 503 + Retry-After before the body
// is even read. With a WAL configured, the 200 is only written after the
// batch is fsynced to the log and indexed (see Shard.ingest).
func (s *Server) extend(w http.ResponseWriter, r *http.Request) {
	if s.Degraded() {
		// Fail-stop: the WAL can no longer make batches durable, so no
		// batch is acknowledged. Reads keep serving; the write path stays
		// closed until a restart re-establishes a trustworthy log.
		s.extendRejects.Add(1)
		unavailableJSON(w, degradedMsg)
		return
	}
	if msg, shed := s.ingestOverload(); shed {
		s.extendOverloads.Add(1)
		unavailableJSON(w, msg)
		return
	}
	b, ok := s.admitBatch(w, r)
	if !ok {
		return
	}
	defer b.cancel()
	st, status, err := s.ingest(b.ctx, b.raw, b.batch)
	if err != nil {
		s.rejectIngest(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, b.acknowledged(st))
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if s.Degraded() {
		unavailableJSON(w, degradedMsg)
		return
	}
	resp, err := s.WriteSnapshot()
	if err != nil {
		rejectJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) compact(w http.ResponseWriter, r *http.Request) {
	if s.Degraded() {
		// Compaction is safe for the in-memory index, but it advances the
		// epoch and invites a snapshot of state the broken log no longer
		// anchors; in fail-stop mode, do nothing but serve reads.
		unavailableJSON(w, degradedMsg)
		return
	}
	resp, err := s.Shard.compact()
	if err != nil {
		rejectJSON(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
// configured server limit, lowered (never raised) by the raw ?timeout=
// parameter. It returns the derived context and its cancel func (both
// unchanged when no limit applies).
func requestDeadline(ctx context.Context, raw string, limit time.Duration) (context.Context, context.CancelFunc, time.Duration, error) {
	if raw != "" {
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

// parseQuery decodes the /query parameters.
func parseQuery(params url.Values) (pathhist.Query, error) {
	var q pathhist.Query
	raw := params.Get("path")
	if raw == "" {
		return q, fmt.Errorf("missing ?path=<edge,edge,...>")
	}
	for _, tok := range strings.Split(raw, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 32)
		if err != nil || id < 0 {
			return q, fmt.Errorf("bad edge id %q", tok)
		}
		q.Path = append(q.Path, pathhist.EdgeID(id))
	}
	tod := params.Get("tod")
	from, hasFrom := params.Get("from"), false
	until, hasUntil := params.Get("until"), false
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
	if ws := params.Get("window"); ws != "" {
		if tod == "" {
			return q, fmt.Errorf("window requires tod")
		}
		w, err := strconv.ParseInt(ws, 10, 64)
		if err != nil || w <= 0 {
			return q, fmt.Errorf("bad window %q", ws)
		}
		q.WindowSeconds = w
	}
	if bs := params.Get("beta"); bs != "" {
		b, err := strconv.Atoi(bs)
		if err != nil || b < 0 {
			return q, fmt.Errorf("bad beta %q", bs)
		}
		q.Beta = b
	}
	if us := params.Get("user"); us != "" {
		u, err := strconv.ParseInt(us, 10, 32)
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
	if len(res.Subs) > 0 {
		out.SubQueries = make([]SubResponse, len(res.Subs))
	}
	for i, s := range res.Subs {
		out.SubQueries[i] = SubResponse{
			Segments: len(s.Path),
			Samples:  s.Samples,
			MeanTT:   s.MeanTT,
			Fallback: s.Fallback,
		}
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
	n := 0
	for b := lo; b <= h.Max(); b += w {
		if h.Count(b) > 0 {
			n++
		}
	}
	if n == 0 {
		// NaN counts (an overflowed convolution) pass no m > 0 test; the
		// field stays null, as it always has.
		return
	}
	out.Histogram = make([]Bucket, 0, n)
	for b := lo; b <= h.Max(); b += w {
		if m := h.Count(b); m > 0 {
			out.Histogram = append(out.Histogram, Bucket{
				From: b, Width: w, Fraction: m / total,
			})
		}
	}
}
