package ttserve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pathhist"
	"pathhist/internal/wal"
)

// Shard is the durability unit behind both fronts: one engine with its
// write-ahead log, snapshot directory, ingest counters and degraded latch.
// The single-engine Server serves exactly one; the sharded front routes
// each batch to one of N. It has no HTTP surface of its own — WriteSnapshot
// is callable directly so the process lifecycle (cmd/ttserve's graceful
// shutdown) can persist a final snapshot outside any request.
type Shard struct {
	eng *pathhist.Engine
	cfg Config

	extends        atomic.Int64
	extendTrajs    atomic.Int64
	lastExtendUnix atomic.Int64

	// ingestMu serialises the durable admission sequence — validate, WAL
	// append, index — so the log order is exactly the apply order. Without
	// a WAL the engine's own extend lock would suffice; with one, two
	// interleaved requests could otherwise log in one order and apply in
	// the other.
	ingestMu sync.Mutex

	// snapshotMu serialises snapshot writes: concurrent triggers would
	// race on the same target file for no benefit (each write captures
	// the newest published epoch anyway).
	snapshotMu       sync.Mutex
	snapshotEpoch    atomic.Uint64
	snapshotBytes    atomic.Int64
	lastSnapshotUnix atomic.Int64

	// degraded latches the fail-stop read-only mode (DESIGN.md §12): once
	// the WAL reports a write/sync failure, the mutating endpoints shed
	// with 503 while reads keep serving the (healthy, in-memory) index.
	// The latch never clears in-process — the disk is suspect, and the
	// only trustworthy reset is a restart, whose recovery re-reads the log
	// from the bytes that actually made it down. onDegraded, set by the
	// owning front before it serves, runs once when the latch closes.
	degraded      atomic.Bool
	degradedCause atomic.Pointer[string]
	onDegraded    func()
}

// degradedMsg is the 503 body of a mutating request on a latched shard.
const degradedMsg = "server is degraded (read-only) after a write-ahead log failure; restart to recover"

// NewShard wraps an engine and its durability configuration (WAL, snapshot
// directory and retention, overload bounds). The caller owns the engine's
// and the log's lifecycle.
func NewShard(eng *pathhist.Engine, cfg Config) *Shard {
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = DefaultSnapshotKeep
	}
	return &Shard{eng: eng, cfg: cfg}
}

// enterDegraded latches degraded read-only mode, recording the first cause.
func (s *Shard) enterDegraded(cause error) {
	if s.degraded.CompareAndSwap(false, true) {
		msg := cause.Error()
		s.degradedCause.Store(&msg)
		if s.onDegraded != nil {
			s.onDegraded()
		}
	}
}

// Degraded reports whether the shard latched read-only mode.
func (s *Shard) Degraded() bool { return s.degraded.Load() }

// checkWAL inspects the log's health after a failed WAL operation and
// latches degraded mode when the failure was the log's sticky fail-stop
// (as opposed to a transient admission error that left the log healthy).
func (s *Shard) checkWAL(err error) {
	if log := s.cfg.WAL; log != nil && log.Failed() {
		s.enterDegraded(err)
	}
}

// ingestOverload reports whether the shard sheds ingest load right now:
// the write-ahead log outgrew its bound (a snapshot repays that debt) or
// the merge backlog did (compaction repays it). Both are repay-the-debt
// signals, so the honest answer is "retry shortly", not a slow accept that
// deepens the hole.
func (s *Shard) ingestOverload() (string, bool) {
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
func (s *Shard) WriteSnapshot() (SnapshotResponse, error) {
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
	resp := SnapshotResponse{Path: st.Path, Bytes: st.Bytes, Epoch: st.Epoch}
	if log := s.cfg.WAL; log != nil {
		if err := log.TruncateCovered(uint64(st.Trajectories)); err != nil {
			// The snapshot itself is durable; a rotation failure only means
			// the log keeps covered records (replay skips them). But if the
			// failure latched the log's fail-stop state, the write path
			// must close with it.
			s.checkWAL(err)
			resp.ElapsedMs = msSince(started)
			return resp, fmt.Errorf("ttserve: rotating WAL after snapshot: %w", err)
		}
	}
	// Pin both the configured restore file and the file the engine is
	// serving over a mapping. They usually coincide, but an engine mapped
	// from an explicit -load-snapshot path inside the snapshot dir has no
	// LoadedSnapshotPath pin, and deleting a mapped file silently breaks
	// the next restart's re-open even though the running process keeps
	// serving (the unlinked inode stays alive on unix).
	_, err = pathhist.PruneSnapshots(s.cfg.SnapshotDir, s.cfg.SnapshotKeep,
		s.cfg.LoadedSnapshotPath, s.eng.MappedSnapshotPath())
	resp.ElapsedMs = msSince(started)
	return resp, err
}

// msSince is the elapsed_ms wire value: milliseconds at microsecond
// resolution.
func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// statsSnapshot assembles the shard's part of a /statsz payload; the front
// that owns the shard adds its own lifecycle bits and request counters.
func (s *Shard) statsSnapshot() Stats {
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
		LastExtendUnix:         s.lastExtendUnix.Load(),
		Compactions:            compactions,
		CompactionFailures:     s.eng.CompactionFailures(),
		LastCompactionMerged:   int64(lastCompaction.PartitionsBefore - lastCompaction.PartitionsAfter),
		LastCompactUnix:        lastCompaction.CompletedUnix,
		SnapshotEpoch:          s.snapshotEpoch.Load(),
		LastSnapshotUnix:       s.lastSnapshotUnix.Load(),
		SnapshotBytes:          s.snapshotBytes.Load(),
		WALEnabled:             s.cfg.WAL != nil,
		Index:                  s.eng.IndexInfo(),
	}
	if cause := s.degradedCause.Load(); cause != nil {
		st.WALFailed, st.DegradedMode, st.DegradedCause = 1, 1, *cause
	}
	if log := s.cfg.WAL; log != nil {
		ws := log.Stats()
		st.WALRecords = ws.Records
		st.WALBytes = ws.Bytes
		st.WALAppends = ws.Appends
		st.WALFsyncMsTotal = float64(ws.FsyncNanos) / 1e6
		st.WALRotations = ws.Rotations
		st.WALRollbacks = ws.Rollbacks
		if ws.Failed {
			// The log failed outside a request path this shard drove
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

// ingest runs the durable admission sequence for one batch under the
// ingest lock: validate, append to the WAL (fsynced), then index. The
// returned status is the HTTP code to report alongside a non-nil error. A
// batch is booked in the shard's ingest counters here, where it is applied,
// so both fronts report the same truth.
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
func (s *Shard) ingest(ctx context.Context, raw []byte, batch *pathhist.Store) (st pathhist.IngestStats, status int, err error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	defer func() {
		if err == nil {
			s.extends.Add(1)
			s.extendTrajs.Add(int64(batch.Len()))
			s.lastExtendUnix.Store(time.Now().Unix())
		}
	}()
	log := s.cfg.WAL
	if log == nil {
		if st, err = s.eng.ExtendCtx(ctx, batch); err != nil {
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
	st, err = s.eng.Extend(batch)
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

// compact merges the temporal partitions accumulated by /extend batches
// back into few large ones and publishes the result as a new epoch, off the
// serving path. Idempotent — when nothing needs merging the answer reports
// an unchanged layout. The answer carries the epoch of this compaction's
// own publication (from CompactionStats), not a re-read of engine state a
// concurrent extend may already have advanced.
func (s *Shard) compact() (CompactResponse, error) {
	st, err := s.eng.Compact()
	if err != nil {
		return CompactResponse{}, err
	}
	return CompactResponse{
		PartitionsBefore: st.PartitionsBefore,
		PartitionsAfter:  st.PartitionsAfter,
		Runs:             st.Runs,
		TrajsRebuilt:     st.TrajsRebuilt,
		RecordsRebuilt:   st.RecordsRebuilt,
		Epoch:            st.Epoch,
		ElapsedMs:        float64(st.Elapsed.Microseconds()) / 1000,
	}, nil
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
