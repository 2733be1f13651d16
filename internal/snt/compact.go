package snt

import (
	"errors"
	"fmt"
	"time"

	"pathhist/internal/failpoint"
	"pathhist/internal/fmindex"
	"pathhist/internal/network"
	"pathhist/internal/suffix"
	"pathhist/internal/temporal"
)

// ErrCompactionStale is returned by ApplyCompaction when the partitions the
// prepared merge was planned over are no longer a prefix of the target
// snapshot — i.e. another compaction landed in between. The caller re-bases
// by preparing again against the newest snapshot. (Concurrent Extends do
// NOT stale a preparation: they only append partitions, and the old ones
// are immutable.)
var ErrCompactionStale = errors.New("snt: prepared compaction is stale; re-prepare against the newest snapshot")

// ErrCompactionAborted is returned by PrepareCompaction when the stop
// channel closed: the preparation was abandoned at a chunk boundary, nothing
// was superseded, and no partial state escapes (the half-built preparation
// is garbage). The caller simply does not apply anything.
var ErrCompactionAborted = errors.New("snt: compaction preparation aborted at a chunk boundary")

// FailpointPrepareRun fires before each merged run's suffix/FM rebuild — the
// chunk whose boundaries PrepareCompaction checks the stop channel at. A
// Delay injection simulates a giant merge so tests can prove an abandon (or
// an Engine.Close) does not wait out the whole preparation.
const FailpointPrepareRun = "compact.prepare.run"

// Partition compaction. Every Extend adds one temporal partition, and
// Procedure 2 runs a backward search in every partition, so query cost
// degrades linearly with ingest count. Compact is the cure: it merges runs
// of adjacent partitions back into single large ones, rebuilding everything
// a partition owns — trajectory string, suffix array, FM-index (wavelet
// tree + segment counters), the ISA positions in the frozen temporal
// columns and the per-trajectory partition lookup — so the result is indistinguishable from an index built from
// scratch with the merged layout.
//
// The merged trajectory strings are reconstructed from the frozen columns
// alone (no trajectory store needed): every record carries (Traj, Seq) and
// its segment id, partitions cover contiguous trajectory-id ranges in
// partition order, and trajectory ids are assigned in start-time order, so
// concatenating each trajectory's segments in (id, seq) order reproduces
// exactly the string a from-scratch Build would have produced.
//
// Like Extend, Compact is copy-on-write: the receiver remains a fully
// consistent snapshot for concurrent readers, untouched state (FM-indexes
// of unmerged partitions, frozen columns of unaffected segments) is shared
// between the snapshots, and the receiver is superseded so snapshot chains
// stay linear. Publication to concurrent readers goes through an atomic
// pointer swap (query.Engine's merge) — compaction runs entirely off the
// serving path and readers never block.

// CompactionPolicy is a size-tiered merge policy over adjacent partitions.
// The zero value compacts everything into a single partition whenever the
// index holds two or more.
type CompactionPolicy struct {
	// TriggerPartitions gates planning: with fewer partitions the policy
	// plans no merge. A value ≤ 0 disables the gate (compact whenever a
	// merge is possible — the manual-trigger setting).
	TriggerPartitions int
	// MaxMergedRecords caps one merged partition's record count, which is
	// what makes the policy size-tiered: a partition already at or above
	// the cap is "large" and left alone, and a run of small partitions is
	// cut when absorbing the next one would exceed the cap. 0 means
	// unbounded — all adjacent partitions merge into one.
	MaxMergedRecords int
}

// run is a half-open partition-id range [lo, hi) selected for merging.
type mergeRun struct{ lo, hi int }

// plan selects the runs of adjacent partitions to merge; a run is at least
// two partitions long (merging one with itself would only churn memory).
// parts carries the per-partition record counts Build/Extend maintain.
func (p CompactionPolicy) plan(parts []partition) []mergeRun {
	if p.TriggerPartitions > 0 && len(parts) < p.TriggerPartitions {
		return nil
	}
	var runs []mergeRun
	lo, recs := 0, 0
	flush := func(hi int) {
		if hi-lo >= 2 {
			runs = append(runs, mergeRun{lo: lo, hi: hi})
		}
	}
	for w := range parts {
		r := parts[w].records
		if p.MaxMergedRecords > 0 && r >= p.MaxMergedRecords {
			// Large partition: never merged, cuts the current run.
			flush(w)
			lo, recs = w+1, 0
			continue
		}
		if p.MaxMergedRecords > 0 && recs+r > p.MaxMergedRecords && w > lo {
			flush(w)
			lo, recs = w, 0
		}
		recs += r
	}
	flush(len(parts))
	return runs
}

// CompactionStats reports what one Compact did.
type CompactionStats struct {
	// PartitionsBefore and PartitionsAfter frame the merge; equal values
	// mean the policy planned nothing (the returned index is the receiver).
	PartitionsBefore, PartitionsAfter int
	// Runs is the number of merged partition runs.
	Runs int
	// TrajsRebuilt and RecordsRebuilt count the trajectories and traversal
	// records whose partition state was rebuilt.
	TrajsRebuilt, RecordsRebuilt int
	// Elapsed is the wall-clock compaction time and CompletedUnix the wall
	// clock at completion (0 when nothing merged).
	Elapsed       time.Duration
	CompletedUnix int64
	// Epoch is filled in by the serving layer (query.Engine) with the
	// epoch the compacted snapshot was published as — the same
	// own-publication attribution IngestStats gives a batch. It stays 0
	// at the snt level and for unpublished compactions.
	Epoch uint64
}

// PreparedCompaction is the heavy, read-only half of a compaction: merged
// trajectory strings reconstructed, suffix structures and FM-indexes
// built — everything except the cheap final assembly that ApplyCompaction performs. Because all of it is derived from
// partitions that are immutable once published (Extend only ever appends
// new partitions), a preparation stays valid while ingestion continues: it
// can be built off the write lock against one snapshot and applied later to
// a newer one. Only another compaction invalidates it (ErrCompactionStale).
type PreparedCompaction struct {
	old       int              // partition count the plan covered
	baseFM    []*fmindex.Index // identity of those partitions, for staleness detection
	runs      []mergeRun
	runOf     []int
	numNew    int // partitions the first old partitions collapse into
	runBase   []int
	runLens   [][]int32
	runStarts [][]int32
	runISA    [][]int32
	runFM     []*fmindex.Index
	filled    []int
	trajs     int
	records   int
	prepared  time.Duration
}

// PrepareCompaction plans and precomputes a compaction of the receiver per
// the policy, without superseding anything: the receiver stays extendable
// and the preparation can run concurrently with reads and with Extends of
// newer snapshots. A nil preparation (with a nil error) means the policy
// planned no merge.
//
// When stop closes, the preparation returns ErrCompactionAborted at the
// next chunk boundary instead of finishing the whole merge. The heavy work —
// one suffix-array + FM-index rebuild per merged run — is chunked per run,
// so a shutdown or drain abandons a giant multi-run merge after at most one
// run's build rather than all of them. A nil stop never aborts.
func (ix *Index) PrepareCompaction(policy CompactionPolicy, stop <-chan struct{}) (*PreparedCompaction, error) {
	startedAt := time.Now()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	runs := policy.plan(ix.parts)
	if len(runs) == 0 {
		return nil, nil
	}
	if stopped() {
		return nil, ErrCompactionAborted
	}

	// Run membership and per-run trajectory-id bases. Partitions cover
	// contiguous id ranges in partition order, so the run [lo, hi) owns ids
	// [trajStart[lo], trajStart[hi]).
	old := len(ix.parts)
	trajStart := make([]int, old+1)
	for w := range ix.parts {
		trajStart[w+1] = trajStart[w] + ix.parts[w].trajs
	}
	runOf := make([]int, old) // run index per old partition, -1 = unmerged
	for w := range runOf {
		runOf[w] = -1
	}
	numNew := old // each run of k partitions collapses into one
	for r, ru := range runs {
		for v := ru.lo; v < ru.hi; v++ {
			runOf[v] = r
		}
		numNew -= ru.hi - ru.lo - 1
	}

	// Reconstruct the merged runs' trajectory strings from the frozen
	// columns. Pass 1 sizes each trajectory (its segment count is its
	// maximum sequence number + 1); pass 2 scatters the segment symbols
	// into place.
	runBase := make([]int, len(runs))
	runLens := make([][]int32, len(runs))
	for r, ru := range runs {
		runBase[r] = trajStart[ru.lo]
		runLens[r] = make([]int32, trajStart[ru.hi]-trajStart[ru.lo])
	}
	ix.frozen.Each(func(_ network.EdgeID, fx *temporal.FrozenIndex) {
		for i, n := 0, fx.Len(); i < n; i++ {
			r := runOf[ix.partOf(fx.Traj[i])]
			if r < 0 {
				continue
			}
			d := int(fx.Traj[i]) - runBase[r]
			if s := fx.Seq[i] + 1; s > runLens[r][d] {
				runLens[r][d] = s
			}
		}
	})
	texts := make([][]int32, len(runs))
	runStarts := make([][]int32, len(runs))
	for r := range runs {
		lens := runLens[r]
		starts := make([]int32, len(lens))
		total := int32(0)
		for d, l := range lens {
			if l == 0 {
				return nil, fmt.Errorf("snt: compaction found no records for trajectory %d", runBase[r]+d)
			}
			starts[d] = total
			total += l + 1 // trailing terminator
		}
		text := make([]int32, total)
		for d, l := range lens {
			text[starts[d]+l] = fmindex.Terminator
		}
		texts[r], runStarts[r] = text, starts
	}
	filled := make([]int, len(runs))
	ix.frozen.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
		sym := int32(e) + fmindex.MinEdgeSymbol
		for i, n := 0, fx.Len(); i < n; i++ {
			r := runOf[ix.partOf(fx.Traj[i])]
			if r < 0 {
				continue
			}
			d := int(fx.Traj[i]) - runBase[r]
			texts[r][runStarts[r][d]+fx.Seq[i]] = sym
			filled[r]++
		}
	})
	trajsRebuilt, recordsRebuilt := 0, 0
	for r := range runs {
		if want := len(texts[r]) - len(runLens[r]); filled[r] != want {
			return nil, fmt.Errorf("snt: compaction rebuilt %d of %d records in run %d", filled[r], want, r)
		}
		recordsRebuilt += filled[r]
		trajsRebuilt += len(runLens[r])
	}

	// Rebuild each run's suffix structures and FM-index; keep the ISA for
	// the column rewrite. One run's rebuild is the unit of abandonable work:
	// the stop channel is checked before each, so a multi-run merge gives up
	// after at most the run in flight.
	runISA := make([][]int32, len(runs))
	runFM := make([]*fmindex.Index, len(runs))
	for r := range runs {
		if stopped() {
			return nil, ErrCompactionAborted
		}
		if err := failpoint.Inject(FailpointPrepareRun); err != nil {
			return nil, err
		}
		_, isa, bwt := suffix.BuildAll(texts[r], ix.alphabet)
		runISA[r] = isa
		runFM[r] = fmindex.FromBWT(bwt, ix.alphabet)
	}

	baseFM := make([]*fmindex.Index, old)
	for w := range ix.parts {
		baseFM[w] = ix.parts[w].fm
	}
	return &PreparedCompaction{
		old:       old,
		baseFM:    baseFM,
		runs:      runs,
		runOf:     runOf,
		numNew:    numNew,
		runBase:   runBase,
		runLens:   runLens,
		runStarts: runStarts,
		runISA:    runISA,
		runFM:     runFM,
		filled:    filled,
		trajs:     trajsRebuilt,
		records:   recordsRebuilt,
		prepared:  time.Since(startedAt),
	}, nil
}

// ApplyCompaction applies a preparation to the receiver — the NEWEST
// snapshot, which may have been extended any number of times since the
// preparation was built (those partitions carry over unchanged, their ids
// shifted down by the merge's net reduction). If another compaction landed
// in between, the prepared partitions are no longer a prefix of the
// receiver and ApplyCompaction returns ErrCompactionStale; the caller
// re-prepares against the newest snapshot. On success the receiver is
// superseded exactly like Extend supersedes it, and query results from the
// returned snapshot are bit-identical to the receiver's. A nil preparation
// returns the receiver unchanged (the no-merge case).
func (ix *Index) ApplyCompaction(p *PreparedCompaction) (*Index, CompactionStats, error) {
	startedAt := time.Now()
	stats := CompactionStats{PartitionsBefore: len(ix.parts), PartitionsAfter: len(ix.parts)}
	if p == nil {
		return ix, stats, nil
	}
	if len(ix.parts) < p.old {
		return nil, stats, ErrCompactionStale
	}
	for w := 0; w < p.old; w++ {
		if ix.parts[w].fm != p.baseFM[w] {
			return nil, stats, ErrCompactionStale
		}
	}
	if ix.superseded.Swap(true) {
		return nil, stats, ErrSuperseded
	}
	committed := false
	defer func() {
		if !committed {
			ix.superseded.Store(false)
		}
	}()

	old := p.old
	numNew := p.numNew + (len(ix.parts) - old)
	runs, runOf := p.runs, p.runOf
	runBase, runStarts, runISA := p.runBase, p.runStarts, p.runISA

	// Assemble the new partition list: merged runs collapse to one entry,
	// unmerged partitions carry over (their FM-indexes are shared), and
	// partitions ingested since the preparation are appended unchanged.
	parts := make([]partition, 0, numNew)
	for w := 0; w < old; {
		if r := runOf[w]; r >= 0 {
			parts = append(parts, partition{
				fm:      p.runFM[r],
				trajs:   len(p.runLens[r]),
				records: p.filled[r],
			})
			w = runs[r].hi
			continue
		}
		parts = append(parts, ix.parts[w])
		w++
	}
	parts = append(parts, ix.parts[old:]...)

	// Rewrite the ISA column of every segment holding records of a merged
	// run; the other segments share their index with the receiver. Records
	// ingested since the preparation (partition id >= old) keep their ISA,
	// and no record carries its partition: the new lookup is derived from
	// the new partition list.
	frozen := ix.frozen.Rewrite(func(_ network.EdgeID, fx *temporal.FrozenIndex) *temporal.FrozenIndex {
		var nISA []int32
		for i, d := range fx.Traj {
			w := ix.partOf(d)
			if int(w) >= old || runOf[w] < 0 {
				continue
			}
			if nISA == nil {
				nISA = make([]int32, len(fx.ISA))
				copy(nISA, fx.ISA)
			}
			r := runOf[w]
			nISA[i] = runISA[r][runStarts[r][int(d)-runBase[r]]+fx.Seq[i]]
		}
		if nISA == nil {
			return fx
		}
		return fx.WithISA(nISA)
	})

	nix := &Index{
		g:             ix.g,
		opts:          ix.opts,
		parts:         parts,
		frozen:        frozen,
		users:         ix.users,
		part:          partLookup(parts),
		tmin:          ix.tmin,
		tmax:          ix.tmax,
		alphabet:      ix.alphabet,
		stats:         ix.stats,
		compactedFrom: len(ix.parts),
	}
	nix.stats.Partitions = numNew
	nix.inheritWhole(ix)
	stats.PartitionsAfter = numNew
	stats.Runs = len(runs)
	stats.TrajsRebuilt = p.trajs
	stats.RecordsRebuilt = p.records
	stats.Elapsed = p.prepared + time.Since(startedAt)
	stats.CompletedUnix = time.Now().Unix()
	committed = true
	return nix, stats, nil
}
