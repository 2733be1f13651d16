package snt

import (
	"sync/atomic"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// The terminal-fallback memo. Procedure 1's last rung asks for every
// traversal of one segment over the whole indexed time range, with no β and
// no predicate. The answer reads every record of the segment's frozen
// column and depends on nothing else, so one snapshot needs it at most once
// per segment. The memo keeps it as sufficient statistics — count, exact
// sum, histogram — in one lazily filled slot per segment id. It is derived
// state like the query caches: not part of the index's size, not written to
// snapshots, and empty again after a load. A successor snapshot inherits
// every slot (inheritWhole): a segment's column only ever grows at its end,
// so a slot's answer stays the answer for the column's first n records, and
// the successor extends it by the rest.

// wholeEntry is one memoised terminal answer: the statistics of the
// traversal times of the segment's first n records, bucketed at width. Its
// histogram is shared by every reader and must never be mutated.
type wholeEntry struct {
	width int
	n     int
	sum   int64
	hist  *hist.Histogram
}

// wholeMemo holds one slot per segment id; a nil slot is not filled yet.
type wholeMemo struct {
	slots []atomic.Pointer[wholeEntry]
}

// WholeSegment answers the terminal fallback from the memo: the count,
// exact sum and histogram (bucket width width) of every traversal time of
// p's one segment — what GetTravelTimesWith returns for the same question,
// summarised. ok is false, and nothing is computed, for any other question:
// a path of more than one segment, β > 0, a periodic interval or a fixed one
// that misses some of the segment's records, a user predicate, a
// self-excluded trajectory, or a segment without data (whose answer is the
// speed-limit estimate). filled reports that this call read the column
// instead of answering from the memo alone. The histogram is shared;
// callers must treat it as immutable.
//
// The first call for a segment stores its answer; a call with a different
// width builds its own and leaves the stored one in place. A slot inherited
// from a snapshot the column has since grown past covers only its first
// records: the call reads the records after them, stores the union, and
// reports filled. Concurrent calls each build an equal answer and one of
// them is kept.
func (ix *Index) WholeSegment(p network.Path, iv Interval, f Filter, beta, width int) (n int, sum int64, h *hist.Histogram, filled, ok bool) {
	if len(p) != 1 || beta > 0 || iv.Kind != Fixed || f.User != traj.NoUser || f.ExcludeTraj >= 0 {
		return 0, 0, nil, false, false
	}
	e := p[0]
	fx := ix.frozen.Get(e)
	if fx == nil || fx.Len() == 0 || iv.Start > fx.MinKey() || iv.End <= fx.MaxKey() {
		return 0, 0, nil, false, false
	}
	slot := &ix.wholeSlots()[e]
	en := slot.Load()
	if en != nil && en.width == width && en.n == fx.Len() {
		return en.n, en.sum, en.hist, false, true
	}
	if en == nil || en.width != width {
		built := wholeOf(ix.frozen, fx, 0, width)
		if en == nil {
			slot.CompareAndSwap(nil, built)
		}
		return built.n, built.sum, built.hist, true, true
	}
	tail := wholeOf(ix.frozen, fx, en.n, width)
	built := &wholeEntry{width: width, n: en.n + tail.n, sum: en.sum + tail.sum, hist: hist.Union(en.hist, tail.hist)}
	slot.CompareAndSwap(en, built)
	return built.n, built.sum, built.hist, true, true
}

// wholeOf summarises the traversal times of a segment's records from
// offset from on, each read from the forest's cumulative column.
func wholeOf(ff *temporal.FrozenForest, fx *temporal.FrozenIndex, from, width int) *wholeEntry {
	tts := make([]int32, fx.Len()-from)
	var sum int64
	for i := range tts {
		tts[i] = ff.TT(fx.Traj[from+i], fx.Seq[from+i])
		sum += int64(tts[i])
	}
	return &wholeEntry{width: width, n: len(tts), sum: sum, hist: hist.FromInt32(tts, width)}
}

// wholeSlots returns the memo's slots, allocating them on first use; of
// racing first uses one allocation wins and every caller gets its slots.
func (ix *Index) wholeSlots() []atomic.Pointer[wholeEntry] {
	for {
		if m := ix.whole.Load(); m != nil {
			return m.slots
		}
		ix.whole.CompareAndSwap(nil, &wholeMemo{slots: make([]atomic.Pointer[wholeEntry], ix.g.NumEdges())})
	}
}

// inheritWhole seeds ix's memo, before ix is published, with the filled
// slots of parent, the snapshot it succeeds. Every slot carries over:
// compaction rewrites ISA positions and the partition lookup, never a
// segment's records, and an Extend batch only appends records at the end
// of the columns it touches, so a slot still answers for the records it
// counted and WholeSegment adds the rest on first use. Fills racing on
// parent after the copy are simply not inherited.
func (ix *Index) inheritWhole(parent *Index) {
	m := parent.whole.Load()
	if m == nil {
		return
	}
	nm := &wholeMemo{slots: make([]atomic.Pointer[wholeEntry], len(m.slots))}
	for e := range m.slots {
		if en := m.slots[e].Load(); en != nil {
			nm.slots[e].Store(en)
		}
	}
	ix.whole.Store(nm)
}
