package snt

import (
	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// Fused multi-range scans over the frozen columnar temporal forest.
//
// The Procedure 3/4 scans of the original implementation descended the
// per-segment tree once per day of the interval and invoked a closure per
// record. Over the frozen layout each (lo, hi) time window resolves to a
// column offset pair with binary searches into one contiguous timestamp
// column, and the records are visited in a tight, callback-free loop over
// sequential memory. Periodic intervals enumerate their per-day windows
// directly on the column: every searched region shrinks monotonically in
// scan direction, empty days are skipped in one jump (the timestamp of the
// nearest unprocessed record names the next candidate day), adjacent-day
// searches gallop from the previous window's edge, and the enumeration
// stops as soon as the β requirement is met or the records run out. Record
// visit order is exactly the tree scan order (windows newest-first with
// records descending inside each), keeping results bit-identical to the
// sequential Procedure 6 path.

// lowerBound is temporal.LowerBoundTs (first index with ts[i] >= t) under
// a local name; the wrapper inlines away.
func lowerBound(ts []int64, t int64) int { return temporal.LowerBoundTs(ts, t) }

// floorDiv is floored int64 division for positive divisors.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// gallopBack returns lowerBound(ts[:en], lo) assuming the answer lies near
// en — the window-start search of a periodic scan, whose answer is at most
// one day window below the window's end. Exponential backoff finds a bound
// below the answer in O(log distance), then a binary search pins it.
func gallopBack(ts []int64, en int, lo int64) int {
	if en == 0 || ts[en-1] < lo {
		return en
	}
	j, step := en-1, 1
	for j >= 0 && ts[j] >= lo {
		j -= step
		step <<= 1
	}
	if j < 0 {
		j = -1
	}
	base := j + 1
	return base + lowerBound(ts[base:en], lo)
}

// forEachWindow resolves the interval's time windows to column offset pairs
// [st, en) over ts, newest window first, and calls fn for every window that
// holds records; fn returning false stops the enumeration. fn must not be
// stored (it is stack-allocated at every call site to keep the scan path
// allocation-free).
func forEachWindow(ts []int64, iv Interval, fn func(st, en int) bool) {
	if len(ts) == 0 {
		return
	}
	if iv.Kind == Fixed || iv.Width >= DaySeconds {
		// One contiguous window. A periodic interval covering the whole day
		// tiles the timeline, so its day windows concatenate into the same
		// contiguous sweep in the same order.
		st, en := 0, len(ts)
		if iv.Kind == Fixed {
			en = lowerBound(ts, iv.End)
			st = lowerBound(ts[:en], iv.Start)
		}
		if st < en {
			fn(st, en)
		}
		return
	}
	tod, width, day := iv.TodStart, iv.Width, int64(DaySeconds)
	// cur is the exclusive upper bound of the unprocessed column region; d
	// the candidate day, seeded from the newest record and re-derived from
	// the newest remaining record after every window, which jumps over days
	// whose windows cannot hold records.
	cur := len(ts)
	d := floorDiv(ts[cur-1]-tod, day)
	for cur > 0 {
		lo := d*day + tod
		en := cur
		if ts[cur-1] >= lo+width {
			// The newest remaining record sits in the gap above this
			// window; the window's end is at most a day's records away.
			en = gallopBack(ts, cur, lo+width)
			if en == 0 {
				return // nothing older than this window
			}
		}
		st := gallopBack(ts, en, lo)
		if st < en && !fn(st, en) {
			return
		}
		cur = st
		if cur > 0 {
			d = floorDiv(ts[cur-1]-tod, day)
		}
	}
}

// frozenScan is the per-call state of one Procedure 3 scan, kept in one
// stack frame so the per-window sweeps share it without per-record closures.
type frozenScan struct {
	fx     *temporal.FrozenIndex
	part   []int32 // Index.part (nil = all partition 0)
	users  []traj.UserID
	ranges []Range
	rg0    Range // ranges[0], hoisted for the one-partition fast path
	f      Filter
}

// admit is the Procedure 3 acceptance test: record i must fall in its
// trajectory's partition's ISA range and pass the filter.
func (s *frozenScan) admit(i int) bool {
	d := s.fx.Traj[i]
	rg := s.rg0
	if s.part != nil {
		rg = s.ranges[s.part[d]]
	}
	if isa := int64(s.fx.ISA[i]); isa < rg.St || isa >= rg.Ed {
		return false
	}
	if d == s.f.ExcludeTraj {
		return false
	}
	if s.f.User != traj.NoUser && s.users[d] != s.f.User {
		return false
	}
	return true
}

// The scan core. Every retrieval entry point — GetTravelTimesWith,
// ScanCandidates, CountMatchesWith — runs Index.scan: collect, then join,
// which projects every hit onto its one sample; each entry point reads the
// same hits and samples into its own result.

// collect is Procedure 3 over the frozen columns: visit segment p[0]'s
// records in scan order across the interval's windows, keep those whose ISA
// index falls in the partition's range and which pass the filter, and write
// their column offsets to sc.hits in scan order, stopping once beta are
// found (beta <= 0 scans exhaustively). Scan order is newest-first:
// windows newest first, records descending inside each, so the hits
// descend in column offset and their time bounds are their last and first
// entries' timestamps. It returns p[0]'s column (nil when p[0] has no
// records; sc.hits is then empty).
//
// A rung the walk memo serves (Scratch.widens) walks the window widened by
// the ladder's reach instead, in the same order with the same admit test:
// only the admitted records inside iv become hits, and a walk that ends
// short of beta is kept in the memo, so the ladder's wider rungs over the
// same path and filter read their hits from it (recall).
func (ix *Index) collect(sc *Scratch, p network.Path, ranges []Range, iv Interval, f Filter, beta int) *temporal.FrozenIndex {
	sc.hits = sc.hits[:0]
	fx := ix.frozen.Get(p[0])
	if fx == nil || fx.Len() == 0 {
		return nil
	}
	s := frozenScan{fx: fx, part: ix.part, users: ix.users, ranges: ranges, rg0: ranges[0], f: f}
	walk, widened := iv, sc.widens(iv, f, beta)
	if widened {
		walk = widen(iv, sc.reach)
		sc.memo.ix, sc.memo.offs = nil, sc.memo.offs[:0]
	}
	sc.walks++
	forEachWindow(fx.Ts, walk, func(st, en int) bool {
		if sc.Canceled() {
			return false
		}
		for n, i := en-st, en-1; n > 0; n, i = n-1, i-1 {
			if n&(cancelStride-1) == 0 && sc.Canceled() {
				return false
			}
			if !s.admit(i) {
				continue
			}
			if widened {
				sc.memo.offs = append(sc.memo.offs, int32(i))
				if !iv.Contains(fx.Ts[i]) {
					continue
				}
			}
			sc.hits = append(sc.hits, int32(i))
			if beta > 0 && len(sc.hits) >= beta {
				return false
			}
		}
		return true
	})
	if widened && len(sc.hits) < beta && !sc.Canceled() {
		m := &sc.memo
		m.ix, m.path, m.f, m.window = ix, append(m.path[:0], p...), f, walk
	}
	return fx
}

// widen returns the periodic window iv widened on both sides by half the
// ladder's reach, rounded up, capped at the whole day. A later rung of the
// same ladder keeps iv's centre and grows by at most reach, so it lies
// inside.
func widen(iv Interval, reach int64) Interval {
	h := (reach + 1) / 2
	return NewPeriodic(iv.TodStart-h, iv.Width+2*h)
}

// recall answers a rung from the walk memo when the memo holds the
// exhaustive walk of p under f on this index over a window containing iv:
// it fills sc.hits with the first beta memoised offsets whose timestamps
// lie in iv — the hits collect would admit, in the same order, since both
// lists descend in column offset — and, when there are beta of them, sc.xs
// with their samples (join); the memo serves periodic rungs only, so fewer
// hits fail the rung and need none. It reports false, touching nothing,
// when the memo cannot answer.
func (ix *Index) recall(sc *Scratch, p network.Path, iv Interval, f Filter, beta int) bool {
	if !sc.widens(iv, f, beta) || !sc.memo.covers(ix, p, iv, f) {
		return false
	}
	fx := ix.frozen.Get(p[0])
	sc.hits, sc.xs = sc.hits[:0], sc.xs[:0]
	for n, i := range sc.memo.offs {
		if n&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			break
		}
		if iv.Contains(fx.Ts[i]) {
			sc.hits = append(sc.hits, i)
			if len(sc.hits) >= beta {
				break
			}
		}
	}
	if len(sc.hits) >= beta {
		ix.join(sc, fx, len(p))
	}
	return true
}

// join is Procedure 4, after collect (or recall) filled sc.hits from
// first, p[0]'s column: it sets sc.xs to one travel-time sample per hit, in
// hit order. A hit's ISA lies in the range of p's backward search, so the
// trajectory-string suffix that starts at the hit begins with p: the hit's
// trajectory d traverses p's last segment at sequence seq+l-1. The sample
// is therefore one difference in the forest's trajectory-major cumulative
// column, x = a_{seq+l-1} - (a_seq - TT_seq) = Cum[b+l-1] - Cum[b-1] with
// b = Start[d]+seq and 0 before sequence 0, and with l = 1 it is the hit's
// own traversal time. The read is clamped to d's last record: that never
// binds on a consistent index, and on a snapshot whose forest disagrees
// with its FM-indexes it keeps the read inside the trajectory.
func (ix *Index) join(sc *Scratch, first *temporal.FrozenIndex, l int) {
	sc.xs = sc.xs[:0]
	cum, start := ix.frozen.Cum, ix.frozen.Start
	for k, i := range sc.hits {
		if k&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			return
		}
		d, s := first.Traj[i], int(first.Seq[i])
		b := int(start[d]) + s
		x := cum[min(b+l, int(start[d+1]))-1]
		if s > 0 {
			x -= cum[b-1]
		}
		sc.xs = append(sc.xs, int(x))
	}
}
