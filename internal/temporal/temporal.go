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
// ForestBuilder collects records in any order into per-segment columns and
// Freeze sorts each segment's columns once, in place. The paper's B+-tree and CSS-tree layouts are
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
//
// Storage is dense by edge id and sized by a counting pass: each segment's
// records are staged in the columns they freeze into, allocated once at
// the count the caller gave, so Add never regrows them and freezing sorts
// them in place rather than copying them.
type ForestBuilder struct {
	segs []segment // by edge id
}

// segment is one segment's records in insertion order, staged column by
// column as a FrozenIndex holds them.
type segment struct {
	ts              []int64
	traj            []traj.ID
	seq, isa, a, tt []int32
}

// NewForestBuilder returns an empty builder for the edge ids [0,
// len(counts)), where counts[e] is the number of records Add will receive
// for segment e. Add appends beyond a count (the column then regrows) and
// panics on an edge id outside the range.
func NewForestBuilder(counts []int) *ForestBuilder {
	b := &ForestBuilder{segs: make([]segment, len(counts))}
	for e, n := range counts {
		if n > 0 {
			b.segs[e] = segment{
				ts:   make([]int64, 0, n),
				traj: make([]traj.ID, 0, n),
				seq:  make([]int32, 0, n),
				isa:  make([]int32, 0, n),
				a:    make([]int32, 0, n),
				tt:   make([]int32, 0, n),
			}
		}
	}
	return b
}

// Add records one segment traversal.
func (b *ForestBuilder) Add(e network.EdgeID, t int64, r Record) {
	s := &b.segs[e]
	s.ts = append(s.ts, t)
	s.traj = append(s.traj, r.Traj)
	s.seq = append(s.seq, r.Seq)
	s.isa = append(s.isa, r.ISA)
	s.a = append(s.a, r.A)
	s.tt = append(s.tt, r.TT)
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

// permute rearranges col in place to col[ord[0]], col[ord[1]], ..., through
// tmp, and returns tmp's memory for reuse.
func permute[T any](col []T, ord []int32, tmp []T) []T {
	tmp = slices.Grow(tmp[:0], len(col))[:len(col)]
	for i, o := range ord {
		tmp[i] = col[o]
	}
	copy(col, tmp)
	return tmp
}

// sortScratch is the memory sort reuses from one segment to the next.
type sortScratch struct {
	ord  []int32
	ts   []int64
	traj []traj.ID
	i32  []int32
}

// sort orders the staged columns in place, stably by entry timestamp. A
// segment whose records arrived in timestamp order is left as it is.
func (s *segment) sort(sc *sortScratch) {
	if slices.IsSorted(s.ts) {
		return
	}
	sc.ord = sortedOrder(s.ts, sc.ord)
	sc.ts = permute(s.ts, sc.ord, sc.ts)
	sc.traj = permute(s.traj, sc.ord, sc.traj)
	for _, col := range [...][]int32{s.seq, s.isa, s.a, s.tt} {
		sc.i32 = permute(col, sc.ord, sc.i32)
	}
}

// Freeze builds the frozen columnar forest: per segment, the staged columns
// are sorted in place and become the frozen index's columns, so a builder
// sized by its counts yields columns with len == cap and no record is
// copied. Freeze consumes the builder: it holds no records afterwards.
func (b *ForestBuilder) Freeze() *FrozenForest {
	ff := &FrozenForest{idx: make(map[network.EdgeID]*FrozenIndex, len(b.segs))}
	var sc sortScratch
	for e := range b.segs {
		if s := &b.segs[e]; len(s.ts) > 0 {
			s.sort(&sc)
			ff.idx[network.EdgeID(e)] = s.frozen()
			*s = segment{}
		}
	}
	return ff
}

// frozen returns a FrozenIndex over the sorted staged columns themselves,
// with its census counted.
func (s *segment) frozen() *FrozenIndex {
	fx := &FrozenIndex{Ts: s.ts, Traj: s.traj, Seq: s.seq, ISA: s.isa, A: s.a, TT: s.tt}
	for _, t := range s.ts {
		censusAdd(&fx.census, t)
	}
	return fx
}
