// Package snt implements the paper's core contribution: the SNT-index of
// Koide et al. extended for travel-time histogram retrieval (Section 4). It
// combines per-partition spatial FM-indexes over the trajectory string with
// a temporal forest whose records carry trajectory ids and sequence numbers
// (Section 4.1.3), and whose aggregate times are kept once, in trajectory
// order, so that the travel times of all trajectories following a path can
// be retrieved with one scan of the first segment's index and one
// subtraction per match (Procedures 3-5).
package snt

import (
	"fmt"
	"sync/atomic"
	"time"

	"pathhist/internal/fmindex"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/suffix"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// Options configures index construction.
type Options struct {
	// PartitionDays is the temporal partition size of Section 4.3.2 in
	// days; 0 builds a single partition (FULL).
	PartitionDays int
}

// partition is one temporal partition: an FM-index over the trajectory
// string of the trajectories starting within the partition's time range,
// plus the metadata the compaction planner sizes runs with. Partitions
// cover contiguous trajectory-id ranges in partition order (Build assigns
// ids in start-time order and Extend appends the next id block), which is
// what lets Compact reconstruct a merged partition's trajectory string from
// the frozen columns alone.
type partition struct {
	fm      *fmindex.Index
	trajs   int // trajectories whose string lives in this partition
	records int // segment traversals carried by those trajectories
}

// Index is the extended SNT-index.
type Index struct {
	g     *network.Graph
	opts  Options
	parts []partition
	// frozen is F in its immutable columnar layout
	// (temporal.ForestBuilder.Freeze). users is the associative container U
	// mapping trajectory ids to user ids (Section 4.1.3). part maps a
	// trajectory id to its temporal partition — the paper's per-record w,
	// which follows from the trajectory because partitions own whole
	// trajectories — and is nil while the index has one partition.
	frozen *temporal.FrozenForest
	users  []traj.UserID
	part   []int32

	tmin, tmax int64
	alphabet   int
	stats      BuildStats

	// compactedFrom is the partition count before the Compact call that
	// produced this snapshot (0 when the snapshot was never compacted).
	compactedFrom int

	// whole is the terminal-fallback memo (whole.go), allocated on first
	// use. Derived state: not counted in Memory, not written to snapshots.
	whole atomic.Pointer[wholeMemo]

	// superseded flips once this snapshot has been extended or compacted.
	// Both share spare column/slice capacity with the snapshot they return,
	// so snapshot chains must be linear: only the newest snapshot may be
	// extended or compacted again. The flag turns a violation into an error
	// instead of silent corruption.
	superseded atomic.Bool
}

// BuildStats reports what Build did (Figure 10c).
type BuildStats struct {
	SetupTime  time.Duration
	Partitions int
	Records    int
	Trajs      int
}

// Build constructs the index over the trajectory store. The store is sorted
// by start time as a side effect (id order = temporal order, the partition
// prerequisite of Section 4.3.2).
func Build(g *network.Graph, store *traj.Store, opts Options) *Index {
	startedAt := time.Now()
	store.SortByStart()
	tmin, tmax := store.TimeRange()
	ix := &Index{
		g:        g,
		opts:     opts,
		users:    make([]traj.UserID, store.Len()),
		tmin:     tmin,
		tmax:     tmax,
		alphabet: int(fmindex.MinEdgeSymbol) + g.NumEdges(),
	}
	// Assign trajectories to partitions by start time.
	partOf := func(t int64) int {
		if opts.PartitionDays <= 0 {
			return 0
		}
		return int((t - tmin) / (int64(opts.PartitionDays) * DaySeconds))
	}
	numParts := 0
	if store.Len() > 0 {
		numParts = partOf(store.All()[store.Len()-1].StartTime()) + 1
	}
	if numParts == 0 {
		numParts = 1
	}
	all := store.All()
	for i := range all {
		ix.users[all[i].ID] = all[i].User
	}
	// Ids follow start time, so each partition's trajectories are one
	// contiguous run of the sorted store.
	groups := make([][]traj.Trajectory, numParts)
	lo := 0
	for w := range groups {
		hi := lo
		for hi < len(all) && partOf(all[hi].StartTime()) == w {
			hi++
		}
		groups[w] = all[lo:hi]
		lo = hi
	}
	ix.parts = buildPartitions(g.NumEdges(), ix.alphabet, groups, 0, func(fb *temporal.ForestBuilder) {
		ix.frozen = fb.Freeze()
	})
	ix.part = partLookup(ix.parts)
	records := 0
	for _, p := range ix.parts {
		records += p.records
	}
	ix.stats = BuildStats{
		SetupTime:  time.Since(startedAt),
		Partitions: numParts,
		Records:    records,
		Trajs:      store.Len(),
	}
	return ix
}

// buildPartitions is the one partition-build routine of Build and Extend.
// groups[w] holds partition w's trajectories, whose ids run on from first
// in group order. A counting pass over every traversal sizes the temporal
// builder exactly; then, per partition, the calling goroutine builds the
// trajectory string T = P0 $ P1 $ ... $, its suffix array, ISA and BWT,
// and adds one temporal record per traversal carrying the ISA of its
// position in T, while one background goroutine builds the FM-index's
// wavelet tree from the BWT. Records are added trajectory by trajectory,
// the order the forest's cumulative column is laid out in. The channel
// between them is unbuffered, so at
// most one wavelet tree is in flight and its BWT is the only one held
// beyond the partition being built. finish receives the filled builder on
// the calling goroutine while the last wavelet tree is still being built;
// buildPartitions returns once both are done.
func buildPartitions(numEdges, alphabet int, groups [][]traj.Trajectory, first traj.ID,
	finish func(*temporal.ForestBuilder)) []partition {
	counts := make([]int, numEdges)
	for _, trs := range groups {
		for i := range trs {
			for _, e := range trs[i].Seq {
				counts[e.Edge]++
			}
		}
	}
	fb := temporal.NewForestBuilder(counts)
	parts := make([]partition, len(groups))
	bwts := make(chan []int32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := 0
		for bwt := range bwts {
			parts[w].fm = fmindex.FromBWT(bwt, alphabet)
			w++
		}
	}()
	func() {
		defer close(bwts)
		id := first
		for w, trs := range groups {
			n := len(trs)
			for i := range trs {
				n += len(trs[i].Seq)
			}
			text := make([]int32, 0, n)
			for i := range trs {
				for _, e := range trs[i].Seq {
					text = append(text, int32(e.Edge)+fmindex.MinEdgeSymbol)
				}
				text = append(text, fmindex.Terminator)
			}
			_, isa, bwt := suffix.BuildAll(text, alphabet)
			bwts <- bwt
			parts[w].trajs = len(trs)
			parts[w].records = len(text) - len(trs)
			pos := 0
			for i := range trs {
				var agg int32
				for seq, e := range trs[i].Seq {
					agg += e.TT
					fb.Add(e.Edge, e.T, temporal.Record{
						ISA:  isa[pos],
						Traj: id,
						TT:   e.TT,
						A:    agg,
						Seq:  int32(seq),
					})
					pos++
				}
				pos++ // the terminator
				id++
			}
		}
	}()
	finish(fb)
	<-done
	return parts
}

// partLookup returns the per-trajectory partition ids of a partition list,
// or nil when it holds a single partition. Partitions own contiguous
// trajectory-id ranges in partition order, so the lookup is the partitions'
// trajectory counts run-length expanded.
func partLookup(parts []partition) []int32 {
	if len(parts) <= 1 {
		return nil
	}
	n := 0
	for _, p := range parts {
		n += p.trajs
	}
	part := make([]int32, 0, n)
	for w, p := range parts {
		for k := 0; k < p.trajs; k++ {
			part = append(part, int32(w))
		}
	}
	return part
}

// partOf returns the temporal partition of trajectory d.
func (ix *Index) partOf(d traj.ID) int32 {
	if ix.part == nil {
		return 0
	}
	return ix.part[d]
}

// Stats returns the build statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Graph returns the underlying network.
func (ix *Index) Graph() *network.Graph { return ix.g }

// TimeRange returns [tmin, tmax] of the indexed data; the upper bound plus
// one serves as the paper's tmax for the [0, tmax) fallback interval.
func (ix *Index) TimeRange() (int64, int64) { return ix.tmin, ix.tmax }

// NumPartitions returns the number of temporal partitions.
func (ix *Index) NumPartitions() int { return len(ix.parts) }

// Frozen exposes the frozen temporal forest (used by the cardinality
// estimator for its O(log n) exact range counts).
func (ix *Index) Frozen() *temporal.FrozenForest { return ix.frozen }

// pathSymbols converts a network path to trajectory-string symbols.
func (ix *Index) pathSymbols(p network.Path) []int32 {
	syms := make([]int32, len(p))
	for i, e := range p {
		syms[i] = int32(e) + fmindex.MinEdgeSymbol
	}
	return syms
}

// Range is one partition's ISA range [St, Ed).
type Range struct{ St, Ed int64 }

// ISARanges runs Procedure 2 in every partition and returns the ranges,
// indexed by partition id. The per-partition backward searches run as one
// batch over a pooled Scratch — the path's symbols are converted once and
// the range buffer is reused — so only the returned slice is allocated.
func (ix *Index) ISARanges(p network.Path) []Range {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	ranges, _ := ix.isaRanges(sc, p)
	return append([]Range(nil), ranges...)
}

// PathCount returns c_P: the exact number of times the path occurs in the
// trajectory string(s), summed over partitions — the base input of the
// cardinality estimator (Section 4.4). Allocation-free: the batched
// per-partition searches run over a pooled Scratch.
func (ix *Index) PathCount(p network.Path) int64 {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	_, c := ix.isaRanges(sc, p)
	return c
}

// TodHistograms derives the per-segment time-of-day histograms H_e of
// formula (2) (Section 4.4) at the given bucket width: hs[w][e] counts the
// entry times (Ts) of segment e's records whose trajectories lie in
// partition w, and is nil when there are none. It makes one pass over every
// record and stores nothing; the caller (an Acc estimator, Figure 10b)
// keeps the result.
func (ix *Index) TodHistograms(width int) [][]*hist.TodHistogram {
	hs := make([][]*hist.TodHistogram, len(ix.parts))
	for w := range hs {
		hs[w] = make([]*hist.TodHistogram, ix.g.NumEdges())
	}
	ix.frozen.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
		for i, d := range fx.Traj {
			per := hs[ix.partOf(d)]
			if per[e] == nil {
				per[e] = hist.NewTod(width)
			}
			per[e].Add(fx.Ts[i])
		}
	})
	return hs
}

// MemoryStats is the per-component memory model of Figure 10a/10b.
// ForestBytes reports the frozen columnar footprint the index actually
// serves from — smaller than the paper's tree layouts (internal/treeforest
// models those), because the columns carry no node headers, child pointers
// or slack capacity, and the records carry no partition field: the
// partition costs one id per trajectory, none for a single partition.
type MemoryStats struct {
	CBytes      int // segment counters, all partitions
	WTBytes     int // wavelet trees, all partitions
	UserBytes   int // the associative container U
	ForestBytes int // frozen columnar temporal forest, its cumulative column, and the per-trajectory partition lookup
}

// Total returns the summed index memory.
func (m MemoryStats) Total() int {
	return m.CBytes + m.WTBytes + m.UserBytes + m.ForestBytes
}

// Memory computes the memory model.
func (ix *Index) Memory() MemoryStats {
	var m MemoryStats
	for _, p := range ix.parts {
		m.CBytes += p.fm.CSizeBytes()
		m.WTBytes += p.fm.WTSizeBytes()
	}
	m.UserBytes = 24 + len(ix.users)*4
	m.ForestBytes = ix.frozen.SizeBytes() + 24 + len(ix.part)*4
	return m
}

// String summarises the index; a compacted snapshot also reports how many
// partitions the last Compact merged down from.
func (ix *Index) String() string {
	parts := fmt.Sprintf("%d partitions", len(ix.parts))
	if ix.compactedFrom > 0 {
		parts = fmt.Sprintf("%d partitions (compacted from %d)", len(ix.parts), ix.compactedFrom)
	}
	return fmt.Sprintf("snt.Index{%s, %d records, %d trajectories}",
		parts, ix.stats.Records, ix.stats.Trajs)
}
