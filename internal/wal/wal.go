// Package wal is the write-ahead log of acknowledged ingest batches
// (DESIGN.md §11): a small append-only file that makes /extend durable. A
// batch's raw bytes are appended — and fsynced — before the client sees its
// acknowledgement, so a crash at any later point can be repaired by
// replaying the log over the last index snapshot: every acknowledged batch
// is recovered, and nothing that was never fully fsynced ever reappears.
//
// The framing follows the internal/snapio conventions: everything is
// little-endian, every record carries a Castagnoli CRC32 of its payload,
// and corruption fails closed with distinct sentinel errors. The one
// deliberate exception to fail-closed is the torn tail: a record that the
// file ends inside (a crash mid-append) is by construction unacknowledged —
// the acknowledgement strictly follows the fsync — so Open truncates it
// away and reports it instead of refusing to start. A record that is fully
// present but fails its CRC is real corruption (bit rot, splicing) and is
// rejected with ErrChecksum: it may cover an acknowledged batch, so
// serving without it would silently lose data.
//
// Records carry no epochs. The correlation between log and snapshot is the
// total trajectory count: ingestion is append-only and strictly serialised,
// so "the index holds T trajectories" identifies a unique prefix of the
// batch sequence. Each record stores the count the batch was applied on top
// of (PrevTotal) plus its own batch size, which gives replay exact skip,
// ordering and wrong-snapshot checks without coupling the log to epoch
// numbering (compactions advance epochs but never appear in the log).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pathhist/internal/failpoint"
)

// Fault-injection sites (internal/failpoint) at the I/O operations whose
// failures the fail-stop state machine must handle. Production cost is one
// atomic load per site when nothing is enabled.
const (
	// FailpointAppendWrite fails the record write of Append.
	FailpointAppendWrite = "wal.append.write"
	// FailpointAppendSync fails the fsync that makes an append durable.
	FailpointAppendSync = "wal.append.sync"
	// FailpointRotate fails the log rotation (TruncateCovered).
	FailpointRotate = "wal.rotate"
	// FailpointRollbackSync fails the fsync of a RollbackLast truncation.
	FailpointRollbackSync = "wal.rollback.sync"
)

// Magic identifies a pathhist write-ahead log file (8 bytes).
const Magic = "PHWAL\x00\x00\x01"

// Version is the current log format version; readers reject any other.
const Version uint32 = 1

// Sentinel errors, one per failure mode (wrapped with positional detail).
var (
	// ErrWALFailed means a previous append or sync failed and the log is in
	// its sticky failed state: the bytes on disk may or may not include the
	// failed record (an fsync error leaves the kernel's and the platter's
	// view unknowable), so every further mutation — Append, RollbackLast,
	// TruncateCovered — is refused. Fail-stop is the only safe behaviour:
	// continuing to append after a failed sync could acknowledge batches
	// into a log whose prefix is not durable, silently breaking the
	// acknowledged ⇒ fsynced ⇒ recovered guarantee. The repair is a process
	// restart, whose Open re-scans what actually reached the disk.
	ErrWALFailed = errors.New("wal: log is in failed state after an earlier write/sync error")
	// ErrBadMagic means the file is not a write-ahead log at all.
	ErrBadMagic = errors.New("wal: bad magic (not a write-ahead log)")
	// ErrVersion means the log was written by an incompatible version.
	ErrVersion = errors.New("wal: unsupported log format version")
	// ErrChecksum means a fully-present record fails its CRC32 — real
	// corruption, never produced by a torn append (those truncate the file
	// short and are repaired by Open).
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrCorrupt means a record header declares something structurally
	// impossible (zero-length batch, absurd size).
	ErrCorrupt = errors.New("wal: corrupt record header")
)

// crcTable is the Castagnoli polynomial, as everywhere in the snapshot
// format (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRC covers the record header's meaningful prefix (prevTotal, trajs,
// reserved, length — the first 24 bytes) and the payload, so a flipped bit
// in the replay metadata fails closed just like one in the batch itself.
func recordCRC(hdr24, payload []byte) uint32 {
	c := crc32.Checksum(hdr24, crcTable)
	return crc32.Update(c, crcTable, payload)
}

const (
	headerSize = 16 // magic(8) + version(4) + reserved(4)
	recHdrSize = 32 // prevTotal(8) + trajs(4) + reserved(4) + length(8) + crc(4) + pad(4)

	// maxRecordBytes bounds one record's declared payload so a corrupt
	// length cannot drive a huge allocation; it comfortably exceeds any
	// /extend body the serving layer admits.
	maxRecordBytes = 1 << 31
)

// Record is one logged batch: the raw ingest bytes (the traj binary format,
// exactly as they arrived) plus the replay-ordering metadata.
type Record struct {
	// PrevTotal is the number of indexed trajectories the batch was applied
	// on top of. Records are strictly increasing in PrevTotal (every batch
	// adds at least one trajectory), which is what replay orders and
	// cross-checks against the snapshot.
	PrevTotal uint64
	// Trajs is the batch's own trajectory count; PrevTotal+Trajs is the
	// total after the batch.
	Trajs uint32
	// Batch is the raw batch payload.
	Batch []byte
}

// Stats is a point-in-time summary of the log, surfaced in /statsz.
type Stats struct {
	// Records and Bytes describe the live log (bytes include the header).
	Records int
	Bytes   int64
	// Appends, AppendedBytes and FsyncNanos are cumulative since Open:
	// FsyncNanos/Appends is the durability cost one acknowledged batch
	// pays.
	Appends       int64
	AppendedBytes int64
	FsyncNanos    int64
	// GroupCommits counts fsyncs that made more than one append durable at
	// once — the group-commit batching that lets concurrent Append calls
	// share a single fsync instead of queueing one each.
	GroupCommits int64
	// Rotations counts TruncateCovered calls that shrank the file;
	// Rollbacks counts appended records withdrawn by RollbackLast.
	Rotations int64
	Rollbacks int64
	// TornTail reports that Open repaired a torn (unacknowledged) tail,
	// and TornBytes how many bytes it dropped.
	TornTail  bool
	TornBytes int64
	// Failed reports the sticky fail-stop state (see ErrWALFailed).
	Failed bool
}

// WAL is an open write-ahead log. All methods are safe for concurrent use,
// though the serving layer additionally serialises Append with the index
// publication it precedes (the log order must equal the apply order).
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
	recs []recMeta // live records, in file order

	// Group-commit state (DESIGN.md §11). Concurrent Appends write their
	// records under mu, then share fsyncs: whoever finds no fsync in flight
	// becomes the leader and syncs the whole written tail; the rest wait on
	// cond for the synced watermark to pass their record's end. One fsync
	// can thus make many appends durable at once.
	cond         *sync.Cond // broadcast when synced/syncing/failed change
	synced       int64      // durable prefix: every byte below this is fsynced
	syncing      bool       // an fsync is in flight (mu released around it)
	unsyncedRecs int        // records written since the last fsync started

	appends       int64
	appendedBytes int64
	fsyncNanos    int64
	groupCommits  int64
	rotations     int64
	rollbacks     int64
	tornTail      bool
	tornBytes     int64

	// failed latches the first mutation failure (see ErrWALFailed); cause
	// keeps that first error for diagnostics.
	failed bool
	cause  error
}

// recMeta locates one live record inside the file.
type recMeta struct {
	off       int64 // record header offset
	len       int64 // header + padded payload
	prevTotal uint64
	trajs     uint32
}

// Open opens (creating if absent) the log at path and scans it: existing
// records are validated front to back, a torn tail — the file ending inside
// a record — is truncated away (it was never acknowledged), and any other
// inconsistency fails closed with a sentinel error. The scanned records are
// available via Records for replay; the file is positioned for Append.
func Open(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	w := &WAL{f: f, path: path}
	w.cond = sync.NewCond(&w.mu)
	if err := w.scan(); err != nil {
		//lint:ignore syncerr the scan error wins; the fd wrote nothing and holds nothing acknowledged
		f.Close()
		return nil, err
	}
	w.synced = w.size // everything the scan admitted is on disk and synced
	return w, nil
}

// scan validates the whole file, truncating a torn tail in place.
func (w *WAL) scan() error {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) == 0 {
		// Fresh log: write the header now so the file on disk is always
		// well-formed (an empty file and a header-only file both mean "no
		// records", but only the latter round-trips through Open cleanly).
		var h [headerSize]byte
		copy(h[:8], Magic)
		binary.LittleEndian.PutUint32(h[8:], Version)
		if _, err := w.f.Write(h[:]); err != nil {
			return fmt.Errorf("wal: writing header: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing header: %w", err)
		}
		w.size = headerSize
		return nil
	}
	if len(data) < headerSize {
		// Even the header is torn. The file cannot hold any acknowledged
		// record, so rewriting the header loses nothing.
		return w.truncateTo(0, int64(len(data)))
	}
	if string(data[:8]) != Magic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	off := int64(headerSize)
	lastTotal := uint64(0)
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < recHdrSize {
			// Torn mid-header: the append never completed, so the record was
			// never acknowledged.
			return w.truncateTo(off, rest)
		}
		h := data[off:]
		prevTotal := binary.LittleEndian.Uint64(h)
		trajs := binary.LittleEndian.Uint32(h[8:])
		length := binary.LittleEndian.Uint64(h[16:])
		crc := binary.LittleEndian.Uint32(h[24:])
		if length == 0 || length > maxRecordBytes || trajs == 0 {
			return fmt.Errorf("%w: record at offset %d declares %d payload bytes, %d trajectories",
				ErrCorrupt, off, length, trajs)
		}
		padded := (int64(length) + 7) &^ 7
		if rest < recHdrSize+padded {
			// Torn mid-payload: same reasoning as a torn header.
			return w.truncateTo(off, rest)
		}
		payload := data[off+recHdrSize : off+recHdrSize+int64(length)]
		if got := recordCRC(h[:24], payload); got != crc {
			// The record is fully present yet damaged. It may cover an
			// acknowledged batch, so this is never repaired silently.
			return fmt.Errorf("%w: record %d at offset %d: CRC %08x, stored %08x",
				ErrChecksum, len(w.recs), off, got, crc)
		}
		if prevTotal < lastTotal {
			return fmt.Errorf("%w: record %d at offset %d: prev-total %d below predecessor's %d",
				ErrCorrupt, len(w.recs), off, prevTotal, lastTotal)
		}
		lastTotal = prevTotal + uint64(trajs)
		w.recs = append(w.recs, recMeta{off: off, len: recHdrSize + padded, prevTotal: prevTotal, trajs: trajs})
		off += recHdrSize + padded
	}
	w.size = off
	return nil
}

// truncateTo drops the torn tail starting at off (tornBytes bytes of it
// exist) and rewrites the header if even that was incomplete.
func (w *WAL) truncateTo(off, torn int64) error {
	if off == 0 {
		if err := w.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncating torn header: %w", err)
		}
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		var h [headerSize]byte
		copy(h[:8], Magic)
		binary.LittleEndian.PutUint32(h[8:], Version)
		if _, err := w.f.Write(h[:]); err != nil {
			return fmt.Errorf("wal: rewriting header: %w", err)
		}
		off = headerSize
	} else if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncation: %w", err)
	}
	w.size = off
	w.tornTail = true
	w.tornBytes = torn
	return nil
}

// Records returns the live records in file order for replay. The payload
// slices are owned by the caller from here on (the WAL keeps only offsets).
func (w *WAL) Records() ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Record, 0, len(w.recs))
	for i, m := range w.recs {
		buf := make([]byte, m.len-recHdrSize)
		if _, err := w.f.ReadAt(buf, m.off+recHdrSize); err != nil {
			return nil, fmt.Errorf("wal: reading record %d: %w", i, err)
		}
		length := int64(binary.LittleEndian.Uint64(w.hdrAt(m.off)[16:]))
		out = append(out, Record{PrevTotal: m.prevTotal, Trajs: m.trajs, Batch: buf[:length]})
	}
	return out, nil
}

// hdrAt re-reads a record header (only used on the cold Records path).
func (w *WAL) hdrAt(off int64) []byte {
	var h [recHdrSize]byte
	_, _ = w.f.ReadAt(h[:], off)
	return h[:]
}

// failLocked latches the log's sticky failed state (keeping the first
// cause) and returns err. Group-commit waiters are woken so they observe
// the failure instead of waiting for a watermark that will never advance.
// Callers hold mu.
func (w *WAL) failLocked(err error) error {
	if !w.failed {
		w.failed = true
		w.cause = err
	}
	w.cond.Broadcast()
	return err
}

// checkLocked refuses every mutation once the log failed. Callers hold mu.
func (w *WAL) checkLocked() error {
	if w.failed {
		return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.cause)
	}
	return nil
}

// Failed reports whether the log is in its sticky failed state (see
// ErrWALFailed): reads keep working, every mutation is refused.
func (w *WAL) Failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// syncAppend runs the fsync of one appended record (behind its failpoint).
func (w *WAL) syncAppend() error {
	if err := failpoint.Inject(FailpointAppendSync); err != nil {
		return err
	}
	return w.f.Sync()
}

// writeAppend writes one record's bytes at the log tail (behind its
// failpoint).
func (w *WAL) writeAppend(buf []byte) error {
	if err := failpoint.Inject(FailpointAppendWrite); err != nil {
		return err
	}
	_, err := w.f.WriteAt(buf, w.size)
	return err
}

// Append logs one batch and fsyncs it. It must complete before the batch is
// acknowledged to the client — the fsync is the durability point the
// recovery guarantee rests on. prevTotal is the indexed trajectory count the
// batch is being applied on top of, trajs the batch's own count.
//
// Concurrent appends group-commit: each writes its record under the lock,
// then the fsyncs are shared. The first appender to find no fsync in flight
// becomes the leader, releases the lock, and syncs the entire written tail;
// appends that arrive while that fsync runs write their records and wait —
// the next fsync (led by whichever of them gets there first) covers all of
// them at once. Append returns only after the synced watermark covers its
// record, so the acknowledged ⇒ fsynced guarantee is exactly as before; the
// batching only collapses N queued fsyncs into few (Stats.GroupCommits
// counts the fsyncs that covered more than one append).
//
// Failure is fail-stop: after any write or fsync error the on-disk state is
// unknowable (the kernel may or may not have persisted the bytes it
// reported failure for), so the log latches ErrWALFailed and refuses every
// later mutation, and every append whose record the failed fsync was to
// cover returns the error (none of them was acknowledged). Before latching,
// one best-effort truncation drops the unsynced tail back off the file, so
// a disk that recovers (or a simulated fault) leaves the file holding
// exactly the durable prefix — a restart's Open then recovers exactly what
// clients were told succeeded, never more.
func (w *WAL) Append(prevTotal uint64, trajs int, batch []byte) error {
	if len(batch) == 0 || trajs <= 0 {
		return fmt.Errorf("wal: refusing to log an empty batch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkLocked(); err != nil {
		return err
	}
	padded := (int64(len(batch)) + 7) &^ 7
	buf := make([]byte, recHdrSize+padded)
	binary.LittleEndian.PutUint64(buf, prevTotal)
	binary.LittleEndian.PutUint32(buf[8:], uint32(trajs))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(batch)))
	binary.LittleEndian.PutUint32(buf[24:], recordCRC(buf[:24], batch))
	copy(buf[recHdrSize:], batch)
	if err := w.writeAppend(buf); err != nil {
		w.undoUnsyncedLocked()
		return w.failLocked(fmt.Errorf("wal: appending record: %w", err))
	}
	w.recs = append(w.recs, recMeta{off: w.size, len: int64(len(buf)), prevTotal: prevTotal, trajs: uint32(trajs)})
	w.size += int64(len(buf))
	w.unsyncedRecs++
	myEnd := w.size
	for w.synced < myEnd {
		if w.failed {
			// A concurrent write or shared fsync failed before this record
			// became durable; its bytes were truncated away with the rest of
			// the unsynced tail.
			return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.cause)
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		// No fsync in flight: lead one covering the whole written tail.
		w.syncing = true
		target := w.size
		covered := w.unsyncedRecs
		w.unsyncedRecs = 0
		w.mu.Unlock()
		started := time.Now()
		err := w.syncAppend()
		w.mu.Lock()
		w.fsyncNanos += time.Since(started).Nanoseconds()
		w.syncing = false
		if err != nil {
			w.undoUnsyncedLocked()
			return w.failLocked(fmt.Errorf("wal: syncing record: %w", err))
		}
		if w.failed {
			// A concurrent writer failed and truncated the tail while this
			// fsync ran; the watermark must not advance over bytes that are
			// no longer there.
			w.cond.Broadcast()
			return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.cause)
		}
		w.synced = target
		if covered > 1 {
			w.groupCommits++
		}
		w.cond.Broadcast()
	}
	w.appends++
	w.appendedBytes += int64(len(buf))
	return nil
}

// undoUnsyncedLocked best-effort truncates the unsynced tail — every record
// written since the durable watermark — back off the file (and syncs the
// truncation) so the on-disk log holds exactly the acknowledged records
// again. Its own failures are swallowed: the caller is already latching the
// failed state, and even records left behind are unacknowledged, fully
// framed, and therefore harmless — replay applies batches no client was
// told about, and the torn-tail repair handles a partial one. The in-memory
// view is cut back regardless, so Stats and Records describe only the
// durable prefix. Callers hold mu.
func (w *WAL) undoUnsyncedLocked() {
	if err := w.f.Truncate(w.synced); err == nil {
		//lint:ignore syncerr documented best-effort: the caller is latching the primary append failure
		_ = w.f.Sync()
	}
	for len(w.recs) > 0 {
		last := w.recs[len(w.recs)-1]
		if last.off+last.len <= w.synced {
			break
		}
		w.recs = w.recs[:len(w.recs)-1]
	}
	w.size = w.synced
	w.unsyncedRecs = 0
}

// quiesceLocked waits until no fsync is in flight and the written tail is
// durable (or the log has failed), so callers that truncate or close the
// file never race a group-commit fsync. Appenders never abandon an unsynced
// tail — one of them always leads the fsync that drains it — so the wait
// terminates. Callers hold mu.
func (w *WAL) quiesceLocked() {
	for w.syncing || (!w.failed && w.synced < w.size) {
		w.cond.Wait()
	}
}

// RollbackLast withdraws the most recently appended record — the repair for
// the narrow window where a batch was logged but its index publication then
// failed (validation runs before Append, so this is exceptional). The file
// is truncated back and synced; a crash before the truncation lands leaves
// a record whose replay will fail the same way the publication did, which
// keeps recovery fail-closed rather than silently divergent.
func (w *WAL) RollbackLast() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	if err := w.checkLocked(); err != nil {
		// A failed log cannot be repaired by truncation — the write position
		// itself is in doubt. Restart and re-scan instead.
		return err
	}
	if len(w.recs) == 0 {
		return fmt.Errorf("wal: rollback with no records")
	}
	last := w.recs[len(w.recs)-1]
	if err := w.f.Truncate(last.off); err != nil {
		return w.failLocked(fmt.Errorf("wal: rollback truncate: %w", err))
	}
	if err := w.syncRollback(); err != nil {
		return w.failLocked(fmt.Errorf("wal: rollback sync: %w", err))
	}
	w.recs = w.recs[:len(w.recs)-1]
	w.size = last.off
	w.synced = last.off
	w.rollbacks++
	return nil
}

// syncRollback syncs a rollback truncation (behind its failpoint).
func (w *WAL) syncRollback() error {
	if err := failpoint.Inject(FailpointRollbackSync); err != nil {
		return err
	}
	return w.f.Sync()
}

// TruncateCovered drops every record a snapshot at coveredTotal indexed
// trajectories already covers — the log rotation that bounds replay length.
// A record with PrevTotal+Trajs <= coveredTotal is fully inside the
// snapshot; later records are kept (the snapshot was captured while ingest
// kept running). The caller must only pass totals of snapshots that are
// durably on disk: the records are gone the moment this returns.
//
// When records survive, the kept tail is rewritten through a temp file and
// atomically renamed over the log (with a directory fsync), so a crash
// mid-rotation leaves either the old complete log or the new complete log.
func (w *WAL) TruncateCovered(coveredTotal uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	if err := w.checkLocked(); err != nil {
		return err
	}
	if err := failpoint.Inject(FailpointRotate); err != nil {
		return w.failLocked(fmt.Errorf("wal: rotation: %w", err))
	}
	keep := 0
	for keep < len(w.recs) && w.recs[keep].prevTotal+uint64(w.recs[keep].trajs) <= coveredTotal {
		keep++
	}
	if keep == 0 {
		return nil
	}
	if keep == len(w.recs) {
		// Nothing survives: truncate in place to a bare header. An in-place
		// truncation failure leaves the live file in doubt — fail-stop.
		if err := w.f.Truncate(headerSize); err != nil {
			return w.failLocked(fmt.Errorf("wal: rotation truncate: %w", err))
		}
		if err := w.f.Sync(); err != nil {
			return w.failLocked(fmt.Errorf("wal: rotation sync: %w", err))
		}
		w.recs = w.recs[:0]
		w.size = headerSize
		w.synced = headerSize
		w.rotations++
		return nil
	}
	// A tail survives: rebuild the file as header + tail, atomically.
	tailOff := w.recs[keep].off
	tail := make([]byte, w.size-tailOff)
	if _, err := w.f.ReadAt(tail, tailOff); err != nil {
		return fmt.Errorf("wal: rotation read: %w", err)
	}
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: rotation temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		//lint:ignore syncerr fail closure: the primary rotation error wins and the temp file is removed
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	var h [headerSize]byte
	copy(h[:8], Magic)
	binary.LittleEndian.PutUint32(h[8:], Version)
	if _, err := tmp.Write(h[:]); err != nil {
		return fail(fmt.Errorf("wal: rotation header: %w", err))
	}
	if _, err := tmp.Write(tail); err != nil {
		return fail(fmt.Errorf("wal: rotation tail: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("wal: rotation sync: %w", err))
	}
	if err := os.Rename(tmpName, w.path); err != nil {
		return fail(fmt.Errorf("wal: rotation rename: %w", err))
	}
	// The rename is only durable once the directory entry is fsynced; a
	// failure is surfaced rather than latched — both inodes hold a valid
	// log, and a crash that resurrects the pre-rotation file merely replays
	// records the snapshot already covers (recovery is idempotent). The
	// in-memory swap still completes first so w.f tracks the live path.
	var dirErr error
	if d, err := os.Open(dir); err == nil {
		if err := d.Sync(); err != nil {
			dirErr = fmt.Errorf("wal: rotation dir sync: %w", err)
		}
		if err := d.Close(); err != nil && dirErr == nil {
			dirErr = fmt.Errorf("wal: rotation dir close: %w", err)
		}
	}
	old := w.f
	w.f = tmp
	//lint:ignore syncerr the rename fully replaced the pre-rotation inode; nothing acknowledged depends on its close
	old.Close()
	// Re-base the kept record offsets onto the new file layout.
	delta := tailOff - headerSize
	kept := w.recs[keep:]
	w.recs = w.recs[:0]
	for _, m := range kept {
		m.off -= delta
		w.recs = append(w.recs, m)
	}
	w.size -= delta
	w.synced = w.size
	w.rotations++
	return dirErr
}

// Size returns the current log size in bytes (the backpressure signal the
// serving layer bounds).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a point-in-time summary.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Records:       len(w.recs),
		Bytes:         w.size,
		Appends:       w.appends,
		AppendedBytes: w.appendedBytes,
		FsyncNanos:    w.fsyncNanos,
		GroupCommits:  w.groupCommits,
		Rotations:     w.rotations,
		Rollbacks:     w.rollbacks,
		TornTail:      w.tornTail,
		TornBytes:     w.tornBytes,
		Failed:        w.failed,
	}
}

// Close closes the underlying file, first waiting out any in-flight
// group-commit fsync so the fd is never closed under it. Records already
// fsynced stay durable; Close itself syncs nothing (every append returns
// only after its fsync).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	return w.f.Close()
}
