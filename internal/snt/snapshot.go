// Restart persistence (DESIGN.md §10). A snapshot captures one published
// index snapshot — every structure the serving path reads — in the
// versioned, checksummed, 8-byte-aligned section format of
// internal/snapio, so a process can restore a serving-ready index with one
// sequential file read instead of replaying the whole build pipeline
// (suffix arrays, BWTs, per-segment sorts). The build pipeline is untouched:
// WriteSnapshot reads the immutable index, ReadSnapshotBytes (or
// ReadSnapshotMapped) constructs an
// equivalent one, and the differential suite asserts the loaded index is
// query-identical (exact sample order, columns, memory model) to the one
// that wrote it.
//
// Epoch semantics: the index itself is epoch-free — epochs belong to the
// serving layer (query.Engine) — but the snapshot carries the epoch it was
// published as, so a restored engine can republish the same epoch and keep
// epoch-stamped cache semantics consistent across the restart.
package snt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pathhist/internal/fmindex"
	"pathhist/internal/network"
	"pathhist/internal/snapio"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// Section kinds of the snt snapshot layout, in their mandatory file order:
// one meta, one users, one partition section per temporal partition, and
// one forest.
const (
	secMeta      uint32 = 1
	secUsers     uint32 = 2
	secPartition uint32 = 3
	secForest    uint32 = 4
)

// ErrSnapshotMismatch marks internal disagreements in a structurally valid
// snapshot — header vs meta-section epoch or partition counts, section
// order, or a snapshot written against a different road network. Fail
// closed: none of these may be served.
var ErrSnapshotMismatch = errors.New("snt: snapshot internal mismatch")

// WriteSnapshot serialises the index (and the serving epoch it was
// published as) to w. The receiver is immutable, so WriteSnapshot is safe
// to run concurrently with queries against the same snapshot; it returns
// the number of bytes written.
func (ix *Index) WriteSnapshot(w io.Writer, epoch uint64) (int64, error) {
	sections := 2 + len(ix.parts) + 1 // meta, users, partitions, forest
	sw := snapio.NewWriter(w)
	sw.WriteHeader(snapio.Header{
		Epoch:      epoch,
		Partitions: uint32(len(ix.parts)),
		Sections:   uint32(sections),
	})

	sw.Begin(secMeta)
	sw.U64(epoch) // repeated from the header: lets the loader detect a spliced header
	sw.U64(uint64(len(ix.parts)))
	sw.I64(int64(ix.opts.PartitionDays))
	sw.I64(ix.tmin)
	sw.I64(ix.tmax)
	sw.I64(ix.maxTrajDur)
	sw.U64(uint64(ix.alphabet))
	sw.U64(uint64(ix.compactedFrom))
	sw.I64(int64(ix.stats.SetupTime))
	sw.U64(uint64(ix.stats.Partitions))
	sw.U64(uint64(ix.stats.Records))
	sw.U64(uint64(ix.stats.Trajs))
	sw.U64(uint64(len(ix.users)))
	sw.U64(uint64(ix.g.NumEdges()))
	sw.U64(uint64(ix.frozen.NumIndexes()))
	sw.End()

	sw.Begin(secUsers)
	snapio.WriteI32s(sw, ix.users)
	sw.End()

	for i := range ix.parts {
		p := &ix.parts[i]
		sw.Begin(secPartition)
		sw.U64(uint64(p.trajs))
		sw.U64(uint64(p.records))
		p.fm.EncodeSnap(sw)
		sw.End()
	}

	sw.Begin(secForest)
	ix.frozen.EncodeSnap(sw)
	sw.End()

	if err := sw.Close(); err != nil {
		return sw.Written(), err
	}
	return sw.Written(), nil
}

// snapMeta is the decoded meta section.
type snapMeta struct {
	epoch         uint64
	numParts      int
	opts          Options
	tmin, tmax    int64
	maxTrajDur    int64
	alphabet      int
	compactedFrom int
	stats         BuildStats
	numUsers      int
	numEdges      int
	numForestIdx  int
}

// ReadSnapshotBytes restores an index written by WriteSnapshot from an
// in-memory file image (e.g. an os.ReadFile result) against the same road
// network, returning the index and the serving epoch it was written at.
// Sections are decoded straight out of data with no intermediate copy of
// the whole file, and every column is copied onto the heap — the index owns
// its memory. Loading fails closed: truncation, checksum mismatches and
// format version skew surface as the snapio sentinel errors, and internal
// disagreements — header vs section epoch or partition counts, a snapshot
// of a different network — as ErrSnapshotMismatch. The restored index is a
// fresh snapshot: it can be queried, extended and compacted exactly like
// the index that was written.
func ReadSnapshotBytes(g *network.Graph, data []byte) (*Index, uint64, error) {
	sr, err := snapio.NewReader(data)
	if err != nil {
		return nil, 0, err
	}
	return readSnapshot(g, sr, data)
}

// ReadSnapshotMapped is ReadSnapshotBytes in zero-copy mode: data is a
// read-only backing store (normally snapio.Mapping bytes) and the decoded
// columns alias it instead of being copied, so restore cost is dominated by
// CRC verification and the semantic column validation, not by allocation.
// Integrity is checked eagerly, exactly like the copying path — every
// section CRC and validateSnapshotColumns run before the index is returned
// — never lazily at page-fault time. The caller must keep data alive (and
// mapped) for as long as the index or anything derived from it (later
// Extend/Compact epochs share untouched columns) is reachable.
func ReadSnapshotMapped(g *network.Graph, data []byte) (*Index, uint64, error) {
	sr, err := snapio.NewMappedReader(data)
	if err != nil {
		return nil, 0, err
	}
	return readSnapshot(g, sr, data)
}

// readSnapshot decodes the section sequence behind both loaders; whether
// columns are copied or viewed is the reader's mode.
func readSnapshot(g *network.Graph, sr *snapio.Reader, data []byte) (*Index, uint64, error) {
	hdr := sr.Header()

	meta, err := readMeta(sr)
	if err != nil {
		return nil, 0, err
	}
	// Bound the partition count by the file itself before it becomes an
	// allocation capacity: every partition needs its own section, and a
	// section costs at least a 24-byte header — the same
	// hostile-length-never-reaches-the-allocator rule snapio applies to
	// slice columns.
	if meta.numParts > len(data)/24 {
		return nil, 0, fmt.Errorf("%w: %d-byte file cannot hold %d partition sections",
			ErrSnapshotMismatch, len(data), meta.numParts)
	}
	if meta.epoch != hdr.Epoch {
		return nil, 0, fmt.Errorf("%w: header epoch %d, meta section epoch %d",
			ErrSnapshotMismatch, hdr.Epoch, meta.epoch)
	}
	if meta.numParts != int(hdr.Partitions) {
		return nil, 0, fmt.Errorf("%w: header declares %d partitions, meta section %d",
			ErrSnapshotMismatch, hdr.Partitions, meta.numParts)
	}
	if meta.numEdges != g.NumEdges() {
		return nil, 0, fmt.Errorf("%w: snapshot written against a %d-edge network, loading against %d edges",
			ErrSnapshotMismatch, meta.numEdges, g.NumEdges())
	}

	ix := &Index{
		g:             g,
		opts:          meta.opts,
		tmin:          meta.tmin,
		tmax:          meta.tmax,
		maxTrajDur:    meta.maxTrajDur,
		alphabet:      meta.alphabet,
		compactedFrom: meta.compactedFrom,
		stats:         meta.stats,
	}

	// Users section.
	if err := expectSection(sr, secUsers); err != nil {
		return nil, 0, err
	}
	ix.users = snapio.ReadI32s[traj.UserID](sr)
	if err := sr.Err(); err != nil {
		return nil, 0, err
	}
	if len(ix.users) != meta.numUsers {
		return nil, 0, fmt.Errorf("%w: meta declares %d users, section holds %d",
			ErrSnapshotMismatch, meta.numUsers, len(ix.users))
	}

	// Partition sections: the count must match the header exactly — a
	// partition section where the forest is expected (or vice versa) is a
	// disagreement, not a format error — and their trajectory counts must
	// cover the users container exactly, because the per-trajectory
	// partition lookup is derived from them and the scan indexes it with
	// every record's trajectory id.
	ix.parts = make([]partition, 0, meta.numParts)
	trajsSeen := 0
	for i := 0; i < meta.numParts; i++ {
		kind, err := sr.Next()
		if err != nil {
			return nil, 0, err
		}
		if kind != secPartition {
			return nil, 0, fmt.Errorf("%w: expected partition section %d of %d, found kind %d",
				ErrSnapshotMismatch, i+1, meta.numParts, kind)
		}
		trajs := sr.Int()
		records := sr.Int()
		if err := sr.Err(); err != nil {
			return nil, 0, err
		}
		if trajs < 0 || trajs > len(ix.users)-trajsSeen {
			return nil, 0, fmt.Errorf("%w: partition %d declares %d trajectories, %d of %d users left",
				ErrSnapshotMismatch, i, trajs, len(ix.users)-trajsSeen, len(ix.users))
		}
		trajsSeen += trajs
		fm, err := fmindex.DecodeSnap(sr)
		if err != nil {
			return nil, 0, fmt.Errorf("snt: partition %d: %w", i, err)
		}
		if fm.Alphabet() != meta.alphabet {
			return nil, 0, fmt.Errorf("%w: partition %d FM-index alphabet %d, index alphabet %d",
				ErrSnapshotMismatch, i, fm.Alphabet(), meta.alphabet)
		}
		ix.parts = append(ix.parts, partition{fm: fm, trajs: trajs, records: records})
	}
	if trajsSeen != len(ix.users) {
		return nil, 0, fmt.Errorf("%w: partitions hold %d trajectories, users container %d",
			ErrSnapshotMismatch, trajsSeen, len(ix.users))
	}
	ix.part = partLookup(ix.parts)

	// Forest section.
	if err := expectSection(sr, secForest); err != nil {
		return nil, 0, err
	}
	frozen, err := temporal.DecodeSnapForest(sr)
	if err != nil {
		return nil, 0, err
	}
	if frozen.NumIndexes() != meta.numForestIdx {
		return nil, 0, fmt.Errorf("%w: meta declares %d segment indexes, forest section holds %d",
			ErrSnapshotMismatch, meta.numForestIdx, frozen.NumIndexes())
	}
	ix.frozen = frozen
	if err := ix.validateSnapshotColumns(); err != nil {
		return nil, 0, err
	}

	if _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return nil, 0, fmt.Errorf("%w: unexpected extra section", ErrSnapshotMismatch)
		}
		return nil, 0, err
	}
	return ix, hdr.Epoch, nil
}

// validateSnapshotColumns cross-checks every frozen record against the
// structures its fields index at query time: the segment must belong to
// the graph, Traj indexes the users container and the partition lookup,
// Seq is a non-negative sequence position, and ISA must lie inside the ISA
// space [0, |T_w|) of the partition w its trajectory belongs to.
// Per-section CRCs cannot catch a forest section spliced in from a
// *different valid snapshot* — every section checksums clean — so this is
// the semantic check that refuses to serve one instead of panicking (or
// silently mis-answering) at query time.
func (ix *Index) validateSnapshotColumns() error {
	numUsers := len(ix.users)
	numEdges := ix.g.NumEdges()
	// ISA bounds per partition, hoisted out of the record loop: the loop
	// below runs over every frozen record on every (mapped) load, so it must
	// stay branch-light — an unsigned compare folds each negative and upper
	// bound into one test, and the detailed per-record diagnostic loop runs
	// only after the fast scan has found a violation.
	fmLen := make([]uint32, len(ix.parts))
	for w := range ix.parts {
		fmLen[w] = uint32(ix.parts[w].fm.Len())
	}
	var bad error
	ix.frozen.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
		if bad != nil {
			return
		}
		if int(e) < 0 || int(e) >= numEdges {
			bad = fmt.Errorf("%w: forest references segment %d of a %d-edge network",
				ErrSnapshotMismatch, e, numEdges)
			return
		}
		if frozenColumnsValid(fx, ix.part, fmLen, uint32(numUsers)) {
			return
		}
		for i := 0; i < fx.Len(); i++ {
			d := fx.Traj[i]
			if d < 0 || int(d) >= numUsers {
				bad = fmt.Errorf("%w: segment %d record %d names trajectory %d of %d",
					ErrSnapshotMismatch, e, i, d, numUsers)
				return
			}
			w := ix.partOf(d)
			if isa := int(fx.ISA[i]); isa < 0 || isa >= ix.parts[w].fm.Len() {
				bad = fmt.Errorf("%w: segment %d record %d ISA %d outside partition %d's %d positions",
					ErrSnapshotMismatch, e, i, isa, w, ix.parts[w].fm.Len())
				return
			}
			if fx.Seq[i] < 0 {
				bad = fmt.Errorf("%w: segment %d record %d has negative sequence position",
					ErrSnapshotMismatch, e, i)
				return
			}
		}
	})
	return bad
}

// frozenColumnsValid is the fast scan behind validateSnapshotColumns: true
// iff every record's Traj/ISA/Seq passes the semantic bounds, with part the
// index's partition lookup (nil = one partition; its ids are in range by
// construction). The unsigned casts check "negative or too large" in one
// compare per field, and the one-partition path keeps constant bounds so
// the loop carries no per-iteration loads beyond the columns themselves.
func frozenColumnsValid(fx *temporal.FrozenIndex, part []int32, fmLen []uint32, numUsers uint32) bool {
	ids := fx.Traj
	n := len(ids)
	if len(fx.Seq) != n || len(fx.ISA) != n {
		return false // ragged columns; the diagnostic loop pins the record
	}
	// Equal-length reslices let the compiler drop the per-iteration bounds
	// checks inside the scans below.
	seq, isa := fx.Seq[:n], fx.ISA[:n]
	if part == nil {
		if len(fmLen) == 0 {
			return n == 0
		}
		bound := fmLen[0]
		for i := range ids {
			if uint32(ids[i]) >= numUsers || uint32(isa[i]) >= bound || seq[i] < 0 {
				return false
			}
		}
		return true
	}
	for i := range ids {
		d := uint32(ids[i])
		if d >= numUsers || uint32(isa[i]) >= fmLen[part[d]] || seq[i] < 0 {
			return false
		}
	}
	return true
}

// expectSection advances to the next section and requires the given kind.
func expectSection(sr *snapio.Reader, want uint32) error {
	kind, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("%w: missing section kind %d", ErrSnapshotMismatch, want)
		}
		return err
	}
	if kind != want {
		return fmt.Errorf("%w: expected section kind %d, found %d", ErrSnapshotMismatch, want, kind)
	}
	return nil
}

func readMeta(sr *snapio.Reader) (snapMeta, error) {
	var m snapMeta
	if err := expectSection(sr, secMeta); err != nil {
		return m, err
	}
	m.epoch = sr.U64()
	m.numParts = sr.Int()
	m.opts.PartitionDays = int(sr.I64())
	m.tmin = sr.I64()
	m.tmax = sr.I64()
	m.maxTrajDur = sr.I64()
	m.alphabet = sr.Int()
	m.compactedFrom = sr.Int()
	m.stats.SetupTime = time.Duration(sr.I64())
	m.stats.Partitions = sr.Int()
	m.stats.Records = sr.Int()
	m.stats.Trajs = sr.Int()
	m.numUsers = sr.Int()
	m.numEdges = sr.Int()
	m.numForestIdx = sr.Int()
	if err := sr.Err(); err != nil {
		return m, err
	}
	if m.numParts <= 0 {
		return m, fmt.Errorf("%w: meta declares %d partitions", ErrSnapshotMismatch, m.numParts)
	}
	return m, nil
}
