package pathhist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pathhist/internal/failpoint"
	"pathhist/internal/query"
	"pathhist/internal/snapio"
	"pathhist/internal/snt"
)

// Failpoint sites on the snapshot I/O path (internal/failpoint). Each sits
// immediately before the real syscall it stands in for, so an injected error
// exercises exactly the cleanup that syscall's failure would.
const (
	// FailpointSnapshotWrite fires before the snapshot bytes are written to
	// the temp file.
	FailpointSnapshotWrite = "snapshot.write"
	// FailpointSnapshotSync fires before the temp file is fsynced.
	FailpointSnapshotSync = "snapshot.sync"
	// FailpointSnapshotRename fires before the temp file is renamed over
	// the target.
	FailpointSnapshotRename = "snapshot.rename"
	// FailpointSnapshotDirSync fires before the directory fsync that
	// persists the rename.
	FailpointSnapshotDirSync = "snapshot.dirsync"
	// FailpointSnapshotLoad fires before a snapshot file is read back.
	FailpointSnapshotLoad = "snapshot.load"
)

// syncDir persists a just-completed rename in dir: without the directory
// fsync the new directory entry may not survive a crash even though the
// file's bytes would. Failure is reported, not swallowed — the caller's
// snapshot exists but its publication is not yet crash-durable, and pruning
// or WAL truncation must not proceed on that assumption.
func syncDir(dir string) error {
	if err := failpoint.Inject(FailpointSnapshotDirSync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Restart persistence (DESIGN.md §10). An Engine can write its currently
// published index snapshot — every structure the serving path reads, plus
// the epoch it was published as — to a versioned, checksummed, mmap-friendly
// binary format, and a new process can restore a serving-ready Engine from
// those bytes without replaying the build pipeline. The snapshot pairs with
// the dataset's network.bin: the road network is loaded separately and the
// snapshot refuses to load against a different network.

// SnapshotFileName is the legacy single-snapshot file name inside a
// snapshot directory. SnapshotFileIn now writes epoch-named files (see
// SnapshotName) so several generations can be retained; FindLatestSnapshot
// still recognises this name so directories written by older builds keep
// loading.
const SnapshotFileName = "snapshot.snt"

// SnapshotStats reports one written snapshot: its size, the index epoch it
// captured, and how many trajectories that index held. The trajectory
// count is captured from the same pinned publication as the epoch, which
// is what lets a write-ahead log discard exactly the records the snapshot
// covers (wal.TruncateCovered correlates on trajectory totals).
type SnapshotStats struct {
	Bytes        int64
	Epoch        uint64
	Trajectories int
	// Path is the file the snapshot was written to (empty for Snapshot,
	// which writes to a caller-provided Writer).
	Path string
}

// SnapshotName returns the canonical file name for a snapshot of the given
// epoch: zero-padded hex, so lexicographic order is epoch order.
func SnapshotName(epoch uint64) string {
	return fmt.Sprintf("snapshot-%016x.snt", epoch)
}

// FindLatestSnapshot locates the newest snapshot file in dir: the
// highest-epoch SnapshotName file, falling back to the legacy
// SnapshotFileName when no epoch-named snapshot exists. Empty string (and
// nil error) means the directory holds no snapshot at all.
func FindLatestSnapshot(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best := ""
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !snapshotNamed(name) {
			continue
		}
		if best == "" || name > best {
			best = name
		}
	}
	if best != "" {
		return filepath.Join(dir, best), nil
	}
	legacy := filepath.Join(dir, SnapshotFileName)
	if _, err := os.Stat(legacy); err == nil {
		return legacy, nil
	}
	return "", nil
}

// snapshotNamed reports whether name matches the epoch-named snapshot
// pattern snapshot-%016x.snt.
func snapshotNamed(name string) bool {
	const pre, suf = "snapshot-", ".snt"
	if len(name) != len(pre)+16+len(suf) ||
		name[:len(pre)] != pre || name[len(name)-len(suf):] != suf {
		return false
	}
	for _, c := range name[len(pre) : len(pre)+16] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// PruneSnapshots enforces the retention bound in dir: the newest keep
// epoch-named snapshots survive, older ones are deleted. protect names
// files (by full path; empty strings are ignored) that are never deleted
// regardless of age — the snapshot a running replay or serving engine was
// loaded from, which must stay on disk until a newer snapshot durably
// covers it, and the file a mapped engine is serving over
// (Engine.MappedSnapshotPath): deleting a mapped file works on unix —
// the inode survives the unlink — but silently breaks the next restart's
// re-open. The legacy SnapshotFileName is treated as older than every
// epoch-named snapshot (it is only deleted once an epoch-named one exists,
// and never while protected). Returns the deleted file names. keep < 1 is
// treated as 1.
func PruneSnapshots(dir string, keep int, protect ...string) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var named []string
	legacy := false
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if snapshotNamed(ent.Name()) {
			named = append(named, ent.Name())
		} else if ent.Name() == SnapshotFileName {
			legacy = true
		}
	}
	sort.Strings(named) // zero-padded hex: lexicographic == epoch order
	var doomed []string
	if len(named) > keep {
		doomed = named[:len(named)-keep]
	}
	if legacy && len(named) > 0 {
		doomed = append(doomed, SnapshotFileName)
	}
	protected := func(path string) bool {
		for _, p := range protect {
			if p != "" && path == p {
				return true
			}
		}
		return false
	}
	var deleted []string
	for _, name := range doomed {
		path := filepath.Join(dir, name)
		if protected(path) {
			continue
		}
		if err := os.Remove(path); err != nil {
			return deleted, fmt.Errorf("pathhist: pruning snapshot %s: %w", name, err)
		}
		deleted = append(deleted, name)
	}
	return deleted, nil
}

// Snapshot writes the engine's currently published index snapshot and epoch
// to w. The captured pair is one consistent publication: concurrent
// queries, Extends and Compacts are unaffected (the index is immutable; a
// snapshot simply pins one epoch), so Snapshot is safe to call at any time
// on a serving engine.
func (e *Engine) Snapshot(w io.Writer) (SnapshotStats, error) {
	ix, epoch := e.qe.Snapshot()
	n, err := ix.WriteSnapshot(w, epoch)
	return SnapshotStats{Bytes: n, Epoch: epoch, Trajectories: ix.Stats().Trajs}, err
}

// SnapshotFileIn writes an epoch-named snapshot (SnapshotName) into dir
// with SnapshotFile's atomicity, returning stats whose Path names the
// written file. The name is derived from the epoch actually captured (one
// pinned publication — a concurrent Extend cannot make name and content
// disagree). Distinct epochs get distinct files, which is what makes
// retention (PruneSnapshots) and never-delete-the-loaded-file protection
// possible; writing the same epoch twice harmlessly replaces the file with
// identical bytes.
func (e *Engine) SnapshotFileIn(dir string) (SnapshotStats, error) {
	return e.snapshotAtomic(dir, func(epoch uint64) string { return filepath.Join(dir, SnapshotName(epoch)) })
}

// SnapshotFile writes the snapshot to path atomically: the bytes go to a
// temporary file in the same directory, which is fsynced and then renamed
// over the target (with a directory fsync), so a crash mid-write can never
// leave a half-written file where a later load would look for a snapshot —
// either the old file survives or the new one is complete. The returned
// stats' Path is path.
func (e *Engine) SnapshotFile(path string) (SnapshotStats, error) {
	return e.snapshotAtomic(filepath.Dir(path), func(uint64) string { return path })
}

// snapshotAtomic is the publication sequence of SnapshotFile and
// SnapshotFileIn: write the published snapshot to a temporary file in dir,
// fsync and close it, rename it to target(epoch of the captured snapshot),
// and fsync dir so the rename survives a crash. Any failure removes the
// temporary file; the target is only ever touched by the rename.
func (e *Engine) snapshotAtomic(dir string, target func(epoch uint64) string) (SnapshotStats, error) {
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return SnapshotStats{}, fmt.Errorf("pathhist: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) (SnapshotStats, error) {
		//lint:ignore syncerr fail closure: the primary snapshot error wins and the temp file is removed
		tmp.Close()
		os.Remove(tmpName)
		return SnapshotStats{}, err
	}
	if err := failpoint.Inject(FailpointSnapshotWrite); err != nil {
		return fail(fmt.Errorf("pathhist: writing snapshot: %w", err))
	}
	st, err := e.Snapshot(tmp)
	if err != nil {
		return fail(fmt.Errorf("pathhist: writing snapshot: %w", err))
	}
	if err := failpoint.Inject(FailpointSnapshotSync); err != nil {
		return fail(fmt.Errorf("pathhist: syncing snapshot: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("pathhist: syncing snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("pathhist: closing snapshot: %w", err))
	}
	path := target(st.Epoch)
	if err := failpoint.Inject(FailpointSnapshotRename); err != nil {
		os.Remove(tmpName)
		return SnapshotStats{}, fmt.Errorf("pathhist: publishing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return SnapshotStats{}, fmt.Errorf("pathhist: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The file is on disk but its directory entry may not survive a
		// crash; report that rather than claim a durable publication.
		return SnapshotStats{}, fmt.Errorf("pathhist: persisting snapshot publication: %w", err)
	}
	st.Path = path
	return st, nil
}

// LoadSnapshot restores an Engine from a snapshot written by Snapshot,
// against the same road network it was written with. The restored engine
// republishes the snapshot's epoch, so epoch-stamped observability (and any
// client correlating epochs across the restart) stays consistent; query
// results are bit-identical to the engine that wrote the snapshot. The
// Options play the same role as in NewEngine — partitioning, estimator,
// caches, compaction policy are serving-time choices, not part of the
// persisted index — and the cardinality estimator is rebuilt against the
// restored index: the Acc modes derive their time-of-day histograms from
// it, so the estimator the writer ran does not matter. Loading fails closed on any corruption (see
// snt.ReadSnapshot); nothing is partially served.
func LoadSnapshot(g *Graph, r io.Reader, opts Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("pathhist: nil graph")
	}
	ix, epoch, err := snt.ReadSnapshot(g, r)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, qe: query.NewEngineAt(ix, engineConfig(ix, opts), epoch)}, nil
}

// LoadSnapshotFile restores an Engine from a snapshot file: one stat-sized
// read, then sections decode straight out of that buffer.
func LoadSnapshotFile(g *Graph, path string, opts Options) (*Engine, error) {
	if err := failpoint.Inject(FailpointSnapshotLoad); err != nil {
		return nil, fmt.Errorf("pathhist: reading snapshot %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("pathhist: nil graph")
	}
	ix, epoch, err := snt.ReadSnapshotBytes(g, data)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, qe: query.NewEngineAt(ix, engineConfig(ix, opts), epoch)}, nil
}

// LoadSnapshotFileMapped restores an Engine over a read-only mapping of the
// snapshot file instead of a copy: the index's columns point straight into
// the mapping (DESIGN.md §15), so restore cost is CRC verification plus
// semantic validation — no per-column allocation — and stays near-flat as
// the index grows. Integrity is exactly LoadSnapshotFile's: every section
// CRC and the column cross-checks run before the engine exists, never
// lazily at fault time. The engine behaves identically afterwards — query,
// Extend (mapped columns are detached to the heap before any append),
// Compact, Snapshot all work — and holds the mapping for its lifetime; see
// Engine.MappedSnapshotPath for the retention contract. On non-unix
// platforms the mapping degrades to a heap copy of the file.
func LoadSnapshotFileMapped(g *Graph, path string, opts Options) (*Engine, error) {
	if err := failpoint.Inject(FailpointSnapshotLoad); err != nil {
		return nil, fmt.Errorf("pathhist: reading snapshot %s: %w", path, err)
	}
	if g == nil {
		return nil, fmt.Errorf("pathhist: nil graph")
	}
	m, err := snapio.MapFile(path)
	if err != nil {
		return nil, err
	}
	ix, epoch, err := snt.ReadSnapshotMapped(g, m.Data())
	if err != nil {
		if cerr := m.Close(); cerr != nil {
			return nil, fmt.Errorf("pathhist: unmapping %s: %v (after: %w)", path, cerr, err)
		}
		return nil, err
	}
	return &Engine{g: g, qe: query.NewEngineAt(ix, engineConfig(ix, opts), epoch), mapping: m}, nil
}
