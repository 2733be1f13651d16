// Package temporal implements the temporal indexes F = {Φe | e ∈ E} of the
// SNT-index (Section 4.1.2): per-segment indexes keyed by segment entry
// timestamp. Each entry carries the paper's extended record (Section
// 4.1.3): the ISA index, the trajectory id, the traversal time TT, the
// aggregate travel time a from the trajectory's start and the sequence
// number seq. The paper's temporal partition id w (Section 4.3.2) is not
// stored per record: partitions own whole trajectories, so snt derives it
// from the trajectory id.
//
// The only layout built and served is the frozen columnar one (frozen.go):
// ForestBuilder collects records in any order and Freeze sorts each segment
// once and writes its columns. The paper's B+-tree and CSS-tree layouts are
// reproduced from those columns by internal/treeforest, for the Figure 10
// experiments and as a test oracle.
package temporal

import (
	"cmp"
	"slices"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// Record is the extended leaf payload (t maps to this tuple).
type Record struct {
	ISA  int32   // ISA index of this occurrence within its trajectory's partition's FM-index
	Traj traj.ID // trajectory identifier d
	TT   int32   // traversal time of the segment in seconds
	A    int32   // sum of travel times from trajectory start through this segment
	Seq  int32   // sequence number of the segment within the trajectory
}

// ForestBuilder accumulates traversal records per segment, in any order.
// Freeze turns them into a new FrozenForest; FrozenForest.Extend appends
// them to an existing one. Either way each segment's records are sorted
// stably by entry timestamp (the batch build of Section 4.3.1).
type ForestBuilder struct {
	ts   map[network.EdgeID][]int64
	recs map[network.EdgeID][]Record
}

// NewForestBuilder returns an empty builder.
func NewForestBuilder() *ForestBuilder {
	return &ForestBuilder{
		ts:   make(map[network.EdgeID][]int64),
		recs: make(map[network.EdgeID][]Record),
	}
}

// Add records one segment traversal.
func (b *ForestBuilder) Add(e network.EdgeID, t int64, r Record) {
	b.ts[e] = append(b.ts[e], t)
	b.recs[e] = append(b.recs[e], r)
}

// sortedOrder returns the permutation that lists ts in ascending order with
// equal timestamps in insertion order, reusing buf's memory. The sort is a
// stable merge sort on purpose: records arrive trajectory by trajectory in
// start-time order, so each segment's timestamps are nearly sorted already,
// which insertion runs plus merges pass over in close to linear time.
func sortedOrder(ts []int64, buf []int32) []int32 {
	ord := slices.Grow(buf[:0], len(ts))[:len(ts)]
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(ts[a], ts[b]) })
	return ord
}

// Freeze builds the frozen columnar forest: per segment, one sort of a
// permutation, then the records are appended in that order to an empty
// index whose columns already have their final capacity — each column is
// allocated once, with len == cap. The builder is left untouched.
func (b *ForestBuilder) Freeze() *FrozenForest {
	ff := &FrozenForest{idx: make(map[network.EdgeID]*FrozenIndex, len(b.ts))}
	var ord []int32
	var empty FrozenIndex
	for e, ts := range b.ts {
		ord = sortedOrder(ts, ord)
		ff.idx[e] = empty.detached(len(ts)).extended(ts, b.recs[e], ord)
	}
	return ff
}
