// Frozen columnar temporal indexes. Once published the temporal forest is
// read-only (DESIGN.md §6), so each Φe is an immutable struct-of-arrays
// layout — one sorted timestamp column plus parallel packed record columns —
// written once by ForestBuilder.Freeze. Range bounds are two binary searches
// into one contiguous array, range sizes an O(log n) offset subtraction (the
// CSS-tree property of Section 4.3.1), and scans tight loops over sequential
// memory with no callbacks.
package temporal

import (
	"fmt"
	"math"
	"slices"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// FrozenIndex is Φe in frozen columnar form. The exported columns share one
// index space: record i is (Ts[i], Traj[i], Seq[i], ISA[i], A[i], TT[i]),
// and Ts is sorted ascending with ties in the order the records were added.
// All columns are immutable after freezing — a FrozenIndex is never
// mutated; Extend produces a new snapshot by copy-on-write — so any number
// of goroutines may read one concurrently.
//
// There is no partition column: temporal partitions own whole trajectories
// (Section 4.3.2), so a record's partition follows from Traj[i] through the
// owning index's per-trajectory lookup (snt).
type FrozenIndex struct {
	Ts   []int64
	Traj []traj.ID
	Seq  []int32
	ISA  []int32
	A    []int32
	TT   []int32

	// Mapped marks columns that alias a read-only snapshot mapping
	// (zero-copy load, DESIGN.md §15) instead of owning heap memory.
	// Reading is unaffected — the layout is identical — but writing
	// through a mapped column faults, so extended detaches the columns to
	// the heap before appending, and the flag travels with the columns into
	// every FrozenIndex that shares them (WithISA).
	Mapped bool

	// census is the time-of-day census: the number of records per
	// censusBucketSeconds bucket of mod(Ts, day), saturating at
	// censusSaturated ("at least that many"). It is derived from Ts alone —
	// never serialised, recounted on snapshot load — and every constructor
	// of a FrozenIndex in this package fills it; TodBound reads it. A zero
	// census would read as "no records at any time of day", which is why
	// FrozenIndex values are built only inside this package.
	census [CensusBuckets]uint8
}

// The census resolution: 48 half-hour buckets, one byte each.
const (
	daySeconds          = 86400
	CensusBuckets       = 48
	censusBucketSeconds = daySeconds / CensusBuckets
	censusSaturated     = math.MaxUint8
)

// censusAdd counts one record entering at t.
func censusAdd(c *[CensusBuckets]uint8, t int64) {
	r := t % daySeconds
	if r < 0 {
		r += daySeconds
	}
	if b := &c[r/censusBucketSeconds]; *b < censusSaturated {
		*b++
	}
}

// Census returns the time-of-day census (a copy).
//
// Test seam for pathhist/internal/snt.
func (fx *FrozenIndex) Census() [CensusBuckets]uint8 { return fx.census }

// TodBound returns an upper bound on the number of records whose time of
// day lies in the periodic window [todStart, todStart+width) — todStart in
// [0, day), the window wrapping midnight when it must — on any set of days:
// the sum of the census buckets the window overlaps. Every record inside
// the window lies in one of those buckets, so the bound is never below the
// true count; it is math.MaxInt ("no bound") when an overlapped bucket is
// saturated.
func (fx *FrozenIndex) TodBound(todStart, width int64) int {
	first := todStart / censusBucketSeconds
	n := (todStart+width-1)/censusBucketSeconds - first + 1
	if n > CensusBuckets {
		n = CensusBuckets
	}
	sum := 0
	for b := first; n > 0; b, n = b+1, n-1 {
		c := fx.census[b%CensusBuckets]
		if c == censusSaturated {
			return math.MaxInt
		}
		sum += int(c)
	}
	return sum
}

// WithISA returns a copy of the index with the ISA column replaced and
// everything else — the other five columns, Mapped, the census — shared or
// carried over: re-partitioning moves no timestamp. It is how snt
// compaction republishes a segment.
func (fx *FrozenIndex) WithISA(isa []int32) *FrozenIndex {
	nfx := new(FrozenIndex)
	*nfx = *fx
	nfx.ISA = isa
	return nfx
}

// Len returns the number of traversal records.
func (fx *FrozenIndex) Len() int { return len(fx.Ts) }

// MinKey returns the earliest traversal time F[e]min. A FrozenIndex only
// exists for segments with data, so the column is never empty.
func (fx *FrozenIndex) MinKey() int64 { return fx.Ts[0] }

// MaxKey returns the latest traversal time F[e]max.
func (fx *FrozenIndex) MaxKey() int64 { return fx.Ts[len(fx.Ts)-1] }

// LowerBoundTs returns the first index in ts with ts[i] >= t (len(ts) if
// none). Manual binary search — no per-probe closure call, this sits on
// the scan hot paths (also used directly by the fused scans in snt).
func LowerBoundTs(ts []int64, t int64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LowerBound returns the first offset whose timestamp is >= t (Len if none).
func (fx *FrozenIndex) LowerBound(t int64) int { return LowerBoundTs(fx.Ts, t) }

// CountRange returns, exactly and in O(log n), the number of records with
// lo <= t < hi: an offset subtraction.
func (fx *FrozenIndex) CountRange(lo, hi int64) int {
	if hi <= lo {
		return 0
	}
	return fx.LowerBound(hi) - fx.LowerBound(lo)
}

// SizeBytes is the actual columnar footprint: the timestamp column, the
// record columns, the slice headers and the census.
// There is no per-node overhead and no slack capacity — the saving over the
// paper's tree layouts (internal/treeforest models those).
func (fx *FrozenIndex) SizeBytes() int {
	const sliceHeader = 24
	sz := 6*sliceHeader + len(fx.census) + len(fx.Ts)*8
	sz += (len(fx.Traj) + len(fx.Seq) + len(fx.ISA) + len(fx.A) + len(fx.TT)) * 4
	return sz
}

// extended returns a new FrozenIndex whose columns are the receiver's
// followed by batch's, a staged segment already sorted. The
// receiver is not modified: readers holding it keep a consistent view
// forever. Column memory is shared where append can reuse spare capacity —
// the batch's values land beyond the receiver's visible length, which
// readers of the old snapshot never index — so the amortised cost is
// O(batch), not O(history). The sharing
// makes extension chains strictly linear: extending the same snapshot
// twice would write the same spare capacity twice. snt.Index enforces
// linearity with its superseded flag; publication of the new snapshot to
// concurrent readers must happen through an atomic pointer swap (or
// equivalent happens-before edge).
func (fx *FrozenIndex) extended(batch *segment) *FrozenIndex {
	if fx.Mapped {
		// Detach-on-extend: mapped columns are read-only (append into
		// their zero spare capacity would reallocate, but the rule is
		// explicit, not an artifact of cap) — copy them to the heap with
		// room for the batch so the chain grows in owned memory from here
		// on. The mapped snapshot itself stays untouched and shared.
		fx = fx.detached(len(batch.ts))
	}
	nfx := &FrozenIndex{
		Ts:   append(fx.Ts, batch.ts...),
		Traj: append(fx.Traj, batch.traj...),
		Seq:  append(fx.Seq, batch.seq...),
		ISA:  append(fx.ISA, batch.isa...),
		A:    append(fx.A, batch.a...),
		TT:   append(fx.TT, batch.tt...),

		census: fx.census,
	}
	for _, t := range batch.ts {
		censusAdd(&nfx.census, t)
	}
	return nfx
}

// detached returns a heap-owned copy of the index with spare capacity for
// extra more records per column, so the extension appends that follow land
// in owned memory and never reallocate. Extending a mapped index goes
// through it. The receiver (and any mapping behind it) is not touched.
func (fx *FrozenIndex) detached(extra int) *FrozenIndex {
	n := len(fx.Ts)
	return &FrozenIndex{
		Ts:   append(make([]int64, 0, n+extra), fx.Ts...),
		Traj: append(make([]traj.ID, 0, n+extra), fx.Traj...),
		Seq:  append(make([]int32, 0, n+extra), fx.Seq...),
		ISA:  append(make([]int32, 0, n+extra), fx.ISA...),
		A:    append(make([]int32, 0, n+extra), fx.A...),
		TT:   append(make([]int32, 0, n+extra), fx.TT...),

		census: fx.census,
	}
}

// FrozenForest is F frozen: one immutable columnar index per segment with
// data.
type FrozenForest struct {
	idx map[network.EdgeID]*FrozenIndex
}

// Get returns the frozen Φe, or nil when the segment has no data.
func (f *FrozenForest) Get(e network.EdgeID) *FrozenIndex { return f.idx[e] }

// Each calls fn for every segment with data, in unspecified order.
func (f *FrozenForest) Each(fn func(network.EdgeID, *FrozenIndex)) {
	for e, fx := range f.idx {
		fn(e, fx)
	}
}

// NumIndexes returns the number of segments with data.
func (f *FrozenForest) NumIndexes() int { return len(f.idx) }

// SizeBytes is the forest's actual columnar footprint.
func (f *FrozenForest) SizeBytes() int {
	const perEntryMapOverhead = 48 // hash bucket + pointer per segment index
	sz := 0
	for _, fx := range f.idx {
		sz += fx.SizeBytes() + perEntryMapOverhead
	}
	return sz
}

// Rewrite returns a new forest in which every segment's index is replaced
// by fn's result; returning the input index unchanged shares it between the
// forests. The receiver is never modified — this is the copy-on-write
// primitive partition compaction uses to republish ISA positions
// (snt.Index.ApplyCompaction) without touching segments whose records all
// lie outside the merged partitions. fn must return a non-nil index and
// must not mutate the input index or its columns.
func (f *FrozenForest) Rewrite(fn func(network.EdgeID, *FrozenIndex) *FrozenIndex) *FrozenForest {
	nf := &FrozenForest{idx: make(map[network.EdgeID]*FrozenIndex, len(f.idx))}
	for e, fx := range f.idx {
		nf.idx[e] = fn(e, fx)
	}
	return nf
}

// Extend returns a new forest holding the receiver's records followed by
// the builder's batch of newer records (the batch-update path of Section
// 4.3.2). The frozen columns are append-only exactly like the CSS-tree:
// per segment, every new record must carry a timestamp at or after the
// segment's current maximum. The whole batch is validated up front, and the
// receiver is never modified — it remains a fully consistent snapshot for
// concurrent readers (copy-on-write publication; see FrozenIndex.extended
// for the column-sharing contract and its linear-chain requirement).
// Untouched segments share their FrozenIndex with the new forest. A
// successful Extend consumes the builder, as Freeze does.
func (f *FrozenForest) Extend(b *ForestBuilder) (*FrozenForest, error) {
	batches := 0
	for e := range b.segs {
		ts := b.segs[e].ts
		if len(ts) == 0 {
			continue
		}
		batches++
		if fx := f.idx[network.EdgeID(e)]; fx != nil {
			if first := slices.Min(ts); first < fx.MaxKey() {
				return nil, fmt.Errorf("temporal: segment %d batch starts at %d before existing max %d",
					e, first, fx.MaxKey())
			}
		}
	}
	nf := &FrozenForest{idx: make(map[network.EdgeID]*FrozenIndex, len(f.idx)+batches)}
	for e, fx := range f.idx {
		nf.idx[e] = fx
	}
	var sc sortScratch
	for e := range b.segs {
		s := &b.segs[e]
		if len(s.ts) == 0 {
			continue
		}
		s.sort(&sc)
		if fx := nf.idx[network.EdgeID(e)]; fx != nil {
			nf.idx[network.EdgeID(e)] = fx.extended(s)
		} else {
			nf.idx[network.EdgeID(e)] = s.frozen()
		}
		*s = segment{}
	}
	return nf, nil
}
