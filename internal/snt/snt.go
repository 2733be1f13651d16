// Package snt implements the paper's core contribution: the SNT-index of
// Koide et al. extended for travel-time histogram retrieval (Section 4). It
// combines per-partition spatial FM-indexes over the trajectory string with
// a temporal forest whose records carry traversal times, aggregate times
// and sequence numbers (Section 4.1.3), so that the traversal times of
// all trajectories following a path can be retrieved with one scan of the
// first segment's index and one scan of the last segment's index
// (Procedures 3-5).
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
	// TodBucketSeconds enables per-segment per-partition time-of-day
	// histograms with the given bucket width (needed by the Acc estimator
	// modes and Figure 10b); 0 disables them.
	TodBucketSeconds int
	// OldestFirst scans temporal indexes forward in time instead of the
	// default newest-first order (DESIGN.md §4, decision 4).
	OldestFirst bool
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
	// mapping trajectory ids to user ids (Section 4.1.3).
	frozen *temporal.FrozenForest
	users  []traj.UserID
	// tod[w][e] is the time-of-day histogram of segment e in partition w
	// (nil when the segment has no data in the partition).
	tod [][]*hist.TodHistogram

	tmin, tmax int64
	maxTrajDur int64
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
	members := make([][]traj.ID, numParts)
	for i := range store.All() {
		tr := &store.All()[i]
		w := partOf(tr.StartTime())
		members[w] = append(members[w], tr.ID)
		ix.users[tr.ID] = tr.User
		if d := tr.TotalDuration(); d > ix.maxTrajDur {
			ix.maxTrajDur = d
		}
	}
	if opts.TodBucketSeconds > 0 {
		ix.tod = make([][]*hist.TodHistogram, numParts)
		for w := range ix.tod {
			ix.tod[w] = make([]*hist.TodHistogram, g.NumEdges())
		}
	}

	fb := temporal.NewForestBuilder()
	records := 0
	for w := 0; w < numParts; w++ {
		// Build the partition's trajectory string T = P0 $ P1 $ ... $.
		var text []int32
		starts := make([]int, len(members[w]))
		for mi, id := range members[w] {
			starts[mi] = len(text)
			for _, e := range store.Get(id).Seq {
				text = append(text, int32(e.Edge)+fmindex.MinEdgeSymbol)
			}
			text = append(text, fmindex.Terminator)
		}
		_, isa, bwt := suffix.BuildAll(text, ix.alphabet)
		ix.parts = append(ix.parts, partition{
			fm:      fmindex.FromBWT(bwt, ix.alphabet),
			trajs:   len(members[w]),
			records: len(text) - len(members[w]),
		})
		// Temporal records: one per segment traversal, carrying the ISA of
		// the occurrence position, trajectory id, TT, aggregate a, seq, w.
		for mi, id := range members[w] {
			tr := store.Get(id)
			var agg int32
			for seq, e := range tr.Seq {
				agg += e.TT
				pos := starts[mi] + seq
				fb.Add(e.Edge, e.T, temporal.Record{
					ISA:  isa[pos],
					Traj: id,
					TT:   e.TT,
					A:    agg,
					Seq:  int32(seq),
					W:    int32(w),
				})
				if ix.tod != nil {
					h := ix.tod[w][e.Edge]
					if h == nil {
						h = hist.NewTod(opts.TodBucketSeconds)
						ix.tod[w][e.Edge] = h
					}
					h.Add(e.T)
				}
				records++
			}
		}
	}
	ix.frozen = fb.Freeze()
	ix.stats = BuildStats{
		SetupTime:  time.Since(startedAt),
		Partitions: numParts,
		Records:    records,
		Trajs:      store.Len(),
	}
	return ix
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

// User returns the user id of a trajectory (the container U).
func (ix *Index) User(d traj.ID) traj.UserID { return ix.users[d] }

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

// TodSelectivity returns formula (2): the fraction of segment-entry events
// of the path's first segment whose time-of-day falls in the periodic
// window, from the per-partition time-of-day histograms. ok is false when
// histograms are disabled or the segment has no data.
func (ix *Index) TodSelectivity(e network.EdgeID, iv Interval) (float64, bool) {
	if ix.tod == nil || !iv.IsPeriodic() {
		return 0, false
	}
	var in, total float64
	for w := range ix.tod {
		h := ix.tod[w][e]
		if h == nil {
			continue
		}
		in += h.MassRange(iv.TodStart, iv.TodStart+iv.Width)
		total += float64(h.Total())
	}
	if total == 0 {
		return 0, false
	}
	return in / total, true
}

// MemoryStats is the per-component memory model of Figure 10a/10b.
// ForestBytes reports the frozen columnar footprint the index actually
// serves from — smaller than the paper's tree layouts (internal/treeforest
// models those), because the columns carry no node headers, child pointers
// or slack capacity, and the partition column is elided entirely for
// single-partition indexes.
type MemoryStats struct {
	CBytes      int // segment counters, all partitions
	WTBytes     int // wavelet trees, all partitions
	UserBytes   int // the associative container U
	ForestBytes int // frozen columnar temporal forest
	TodBytes    int // time-of-day histograms (Figure 10b)
}

// Total returns the summed index memory excluding the ToD histograms (the
// paper plots them separately).
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
	m.ForestBytes = ix.frozen.SizeBytes()
	for _, per := range ix.tod {
		for _, h := range per {
			if h != nil {
				m.TodBytes += h.SizeBytes()
			}
		}
	}
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
