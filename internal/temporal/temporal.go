// Package temporal implements the temporal indexes F = {Φe | e ∈ E} of the
// SNT-index (Section 4.1.2): per-segment indexes keyed by segment entry
// timestamp. Each entry carries the paper's extended record (Section
// 4.1.3): the ISA index, the trajectory id, the traversal time TT, the
// aggregate travel time a from the trajectory's start and the sequence
// number seq. The paper's temporal partition id w (Section 4.3.2) is not
// stored per record: partitions own whole trajectories, so snt derives it
// from the trajectory id. Nor are TT and a: the forest keeps them once, in
// one trajectory-major column of aggregate times (FrozenForest.Cum), from
// which a record's (trajectory, seq) reads both.
//
// The only layout built and served is the frozen columnar one (frozen.go):
// ForestBuilder collects records trajectory by trajectory into per-segment
// columns and the cumulative column, and Freeze sorts each segment's
// columns once, in place. The paper's B+-tree and CSS-tree layouts are
// reproduced from those columns by internal/treeforest, for the Figure 10
// experiments and as a test oracle.
package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// Record is the extended leaf payload (t maps to this tuple). It is what
// ForestBuilder.Add takes and what the paper's tree layouts store
// (internal/treeforest); the frozen forest keeps TT and A only in its
// cumulative column.
type Record struct {
	ISA  int32   // ISA index of this occurrence within its trajectory's partition's FM-index
	Traj traj.ID // trajectory identifier d
	TT   int32   // traversal time of the segment in seconds
	A    int32   // sum of travel times from trajectory start through this segment
	Seq  int32   // sequence number of the segment within the trajectory
}

// ForestBuilder accumulates traversal records trajectory by trajectory.
// Freeze turns them into a new FrozenForest; FrozenForest.Extend appends
// them to an existing one. Either way each segment's records are sorted
// stably by entry timestamp (the batch build of Section 4.3.1), and each
// trajectory's aggregate times land in the cumulative column in sequence
// order.
//
// Storage is dense by edge id and sized by a counting pass: each segment's
// records are staged in the columns they freeze into, allocated once at
// the count the caller gave, so Add never regrows them and freezing sorts
// them in place rather than copying them.
type ForestBuilder struct {
	segs []segment // by edge id

	// The trajectory-major column being built: cum holds the aggregate
	// times in the order Add received them, start the offset in cum of
	// each trajectory's sequence 0, and first the id of the first
	// trajectory (ids run on from it).
	cum   []int32
	start []int32
	first traj.ID
}

// segment is one segment's records in insertion order, staged column by
// column as a FrozenIndex holds them.
type segment struct {
	ts       []int64
	traj     []traj.ID
	seq, isa []int32
}

// NewForestBuilder returns an empty builder for the edge ids [0,
// len(counts)), where counts[e] is the number of records Add will receive
// for segment e. Add appends beyond a count (the column then regrows) and
// panics on an edge id outside the range.
func NewForestBuilder(counts []int) *ForestBuilder {
	b := &ForestBuilder{segs: make([]segment, len(counts))}
	total := 0
	for e, n := range counts {
		if n > 0 {
			b.segs[e] = segment{
				ts:   make([]int64, 0, n),
				traj: make([]traj.ID, 0, n),
				seq:  make([]int32, 0, n),
				isa:  make([]int32, 0, n),
			}
			total += n
		}
	}
	b.cum = make([]int32, 0, total)
	return b
}

// Add records one segment traversal. Records arrive trajectory by
// trajectory, each in sequence order: a record with Seq 0 opens the
// trajectory whose id follows the previous one's, and any other record
// continues the open trajectory at the next sequence number. r.A is the
// aggregate time the cumulative column stores; r.TT is implied by it (the
// difference to the previous aggregate) and not read. Add panics on a
// record out of that order, which would misplace every later trajectory's
// column.
func (b *ForestBuilder) Add(e network.EdgeID, t int64, r Record) {
	n := len(b.start)
	switch {
	case r.Seq == 0 && n == 0:
		b.first = r.Traj
		b.start = append(b.start, int32(len(b.cum)))
	case r.Seq == 0 && r.Traj == b.first+traj.ID(n):
		b.start = append(b.start, int32(len(b.cum)))
	case n == 0 || r.Traj != b.first+traj.ID(n-1) || int(r.Seq) != len(b.cum)-int(b.start[n-1]):
		panic(fmt.Sprintf("temporal: record (trajectory %d, seq %d) out of trajectory-major order", r.Traj, r.Seq))
	}
	b.cum = append(b.cum, r.A)
	s := &b.segs[e]
	s.ts = append(s.ts, t)
	s.traj = append(s.traj, r.Traj)
	s.seq = append(s.seq, r.Seq)
	s.isa = append(s.isa, r.ISA)
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
	sc.i32 = permute(s.seq, sc.ord, sc.i32)
	sc.i32 = permute(s.isa, sc.ord, sc.i32)
}

// Freeze builds the frozen columnar forest: per segment, the staged columns
// are sorted in place and become the frozen index's columns, so a builder
// sized by its counts yields columns with len == cap and no record is
// copied; the cumulative column is the builder's own. The builder's
// trajectories must start at id 0 (Freeze panics otherwise). Freeze
// consumes the builder: it holds no records afterwards.
func (b *ForestBuilder) Freeze() *FrozenForest {
	if len(b.start) > 0 && b.first != 0 {
		panic(fmt.Sprintf("temporal: Freeze of trajectories starting at id %d, not 0", b.first))
	}
	ff := &FrozenForest{
		idx:   make(map[network.EdgeID]*FrozenIndex, len(b.segs)),
		Cum:   b.cum,
		Start: append(b.start, int32(len(b.cum))),
	}
	b.cum, b.start = nil, nil
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
	fx := &FrozenIndex{Ts: s.ts, Traj: s.traj, Seq: s.seq, ISA: s.isa}
	for _, t := range s.ts {
		censusAdd(&fx.census, t)
	}
	return fx
}
