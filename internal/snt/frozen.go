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
// records descending inside each, or the oldest-first mirror), keeping
// results bit-identical to the sequential Procedure 6 path.

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
// en — the window-start search of a descending periodic scan, whose answer
// is at most one day window below the window's end. Exponential backoff
// finds a bound below the answer in O(log distance), then a binary search
// pins it.
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

// gallopFwd returns lowerBound(ts, hi) within [st, len(ts)] assuming the
// answer lies near st — the window-end search of an ascending periodic scan.
func gallopFwd(ts []int64, st int, hi int64) int {
	n := len(ts)
	if st >= n || ts[st] >= hi {
		return st
	}
	j, step := st, 1
	for j < n && ts[j] < hi {
		j += step
		step <<= 1
	}
	if j > n {
		j = n
	}
	return st + lowerBound(ts[st:j], hi)
}

// forEachWindow resolves the interval's time windows to column offset pairs
// [st, en) over ts, in scan order (newest window first when descending),
// and calls fn for every window that holds records; fn returning false
// stops the enumeration. fn must not be stored (it is stack-allocated at
// every call site to keep the scan path allocation-free).
func forEachWindow(ts []int64, iv Interval, descending bool, fn func(st, en int) bool) {
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
	if descending {
		// cur is the exclusive upper bound of the unprocessed column
		// region; d the candidate day, seeded from the newest record and
		// re-derived from the newest remaining record after every window,
		// which jumps over days whose windows cannot hold records.
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
		return
	}
	// Oldest-first mirror: cur is the inclusive lower bound of the
	// unprocessed region; the candidate day is the earliest whose window
	// ends after the oldest remaining record.
	cur := 0
	d := floorDiv(ts[0]-tod-width, day) + 1
	for cur < len(ts) {
		lo := d*day + tod
		st := cur
		if ts[cur] < lo {
			// The oldest remaining record sits in the gap below this window.
			st = gallopFwd(ts, cur, lo)
			if st == len(ts) {
				return // nothing newer than this window
			}
		}
		en := gallopFwd(ts, st, lo+width)
		if st < en && !fn(st, en) {
			return
		}
		cur = en
		if cur < len(ts) {
			d = floorDiv(ts[cur]-tod-width, day) + 1
		}
	}
}

// frozenScan is the per-call state of one Procedure 3 scan, kept in one
// stack frame so the per-window sweeps share it without per-record closures.
type frozenScan struct {
	fx     *temporal.FrozenIndex
	ws     []int32 // fx.W (nil = all partition 0)
	users  []traj.UserID
	ranges []Range
	rg0    Range // ranges[0], hoisted for the nil-W fast path
	f      Filter
	beta   int
	minT   int64
	maxT   int64
}

func newFrozenScan(ix *Index, fx *temporal.FrozenIndex, ranges []Range, f Filter, beta int) frozenScan {
	return frozenScan{fx: fx, ws: fx.W, users: ix.users, ranges: ranges, rg0: ranges[0], f: f, beta: beta}
}

// admit is the Procedure 3 acceptance test, shared by the probe-table sweep
// and the single-segment fast path: record i must fall in its partition's
// ISA range and pass the filter.
func (s *frozenScan) admit(i int) bool {
	rg := s.rg0
	if s.ws != nil {
		rg = s.ranges[s.ws[i]]
	}
	if isa := int64(s.fx.ISA[i]); isa < rg.St || isa >= rg.Ed {
		return false
	}
	d := s.fx.Traj[i]
	if d == s.f.ExcludeTraj {
		return false
	}
	if s.f.User != traj.NoUser && s.users[d] != s.f.User {
		return false
	}
	return true
}

// sweep visits records [st, en) of one window — descending when descending
// is set, ascending otherwise — inserting every admitted record into the
// probe table. It reports whether the β requirement was met and the scan
// must stop.
func (s *frozenScan) sweep(sc *Scratch, st, en int, descending bool) bool {
	fx := s.fx
	i, step := st, 1
	if descending {
		i, step = en-1, -1
	}
	for n := en - st; n > 0; n, i = n-1, i+step {
		if n&(cancelStride-1) == 0 && sc.Canceled() {
			// Abort mid-window: report "stop scanning" so the enumeration
			// ends; the caller sees Canceled() and discards the partial map.
			return true
		}
		if !s.admit(i) {
			continue
		}
		t := fx.Ts[i]
		if sc.n == 0 || t < s.minT {
			s.minT = t
		}
		if sc.n == 0 || t > s.maxT {
			s.maxT = t
		}
		sc.insert(packKey(int32(fx.Traj[i]), fx.Seq[i]), fx.A[i]-fx.TT[i])
		if s.beta > 0 && sc.n >= s.beta {
			return true
		}
	}
	return false
}

// buildMap is Procedure 3 over the frozen columns: visit the first segment's
// records in scan order across the interval's windows, keep those whose ISA
// index falls in the partition's range and which pass the filter, and map
// (d, seq) to the antecedent aggregate a - TT in the scratch probe table.
// The sequence number in the key guards against trajectories with circular
// paths (Section 4.1.3). The scan stops once beta trajectories are found
// (beta <= 0 scans exhaustively). It returns the scan bounds needed to
// restrict the Procedure 4 scan.
func (ix *Index) buildMap(sc *Scratch, e network.EdgeID, ranges []Range, iv Interval, f Filter, beta int) (minT, maxT int64) {
	fx := ix.frozen.Get(e)
	if fx == nil || fx.Len() == 0 {
		sc.resetTable(beta)
		return 0, 0
	}
	ts := fx.Ts
	descending := !ix.opts.OldestFirst
	if iv.Kind == Fixed || iv.Width >= DaySeconds {
		// One contiguous window (forEachWindow's Fixed/tiling case),
		// resolved here directly so its bounds also serve as the probe
		// table pre-size: exhaustive scans size the table to the window's
		// record count up front, avoiding the grow-and-rehash ladder the
		// tree scans paid. The hint is capped — filters typically admit a
		// fraction of a huge window, and pooled Scratch tables retain
		// their capacity forever, so beyond the cap growing on demand is
		// the better trade.
		const maxPresizeHint = 1 << 15
		st, en := 0, len(ts)
		if iv.Kind == Fixed {
			en = lowerBound(ts, iv.End)
			st = lowerBound(ts[:en], iv.Start)
		}
		hint := beta
		if beta <= 0 {
			hint = en - st
			if hint > maxPresizeHint {
				hint = maxPresizeHint
			}
		}
		sc.resetTable(hint)
		s := newFrozenScan(ix, fx, ranges, f, beta)
		if st < en {
			s.sweep(sc, st, en, descending)
		}
		return s.minT, s.maxT
	}
	sc.resetTable(beta)
	s := newFrozenScan(ix, fx, ranges, f, beta)
	forEachWindow(ts, iv, descending, func(st, en int) bool {
		if sc.Canceled() {
			return false
		}
		return !s.sweep(sc, st, en, descending)
	})
	return s.minT, s.maxT
}

// scanSingle fuses Procedures 3-5 for single-segment paths: with l = 1 a
// record can only match itself in the probe join, so the probe table and
// the Procedure 4 re-scan collapse. Accepted records are collected in scan
// order (respecting β early exit) and their traversal times emitted in
// ascending time order — exactly the sample sequence the probe join would
// have produced. It returns the samples (aliasing the scratch buffer, nil
// when nothing matched) and the number of accepted records.
func (ix *Index) scanSingle(sc *Scratch, e network.EdgeID, ranges []Range, iv Interval, f Filter, beta int) ([]int, int) {
	sc.xs = sc.xs[:0]
	sc.hits = sc.hits[:0]
	fx := ix.frozen.Get(e)
	if fx == nil || fx.Len() == 0 {
		return nil, 0
	}
	s := newFrozenScan(ix, fx, ranges, f, beta)
	descending := !ix.opts.OldestFirst
	forEachWindow(fx.Ts, iv, descending, func(st, en int) bool {
		if sc.Canceled() {
			return false
		}
		i, step := st, 1
		if descending {
			i, step = en-1, -1
		}
		for n := en - st; n > 0; n, i = n-1, i+step {
			if n&(cancelStride-1) == 0 && sc.Canceled() {
				return false
			}
			if !s.admit(i) {
				continue
			}
			sc.hits = append(sc.hits, int32(i))
			if beta > 0 && len(sc.hits) >= beta {
				return false
			}
		}
		return true
	})
	if len(sc.hits) == 0 {
		return nil, 0
	}
	// The emission sweep is bounded by the accepted hits, but β-free queries
	// can accept the whole column — poll at the same stride as the admit
	// loop. A cancelled emission returns the partial samples; the caller
	// observes sc.Canceled() and discards them with a deadline error.
	if descending {
		for k := len(sc.hits) - 1; k >= 0; k-- {
			if k&(cancelStride-1) == 0 && sc.Canceled() {
				break
			}
			sc.xs = append(sc.xs, int(fx.TT[sc.hits[k]]))
		}
	} else {
		for n, i := range sc.hits {
			if n&(cancelStride-1) == 0 && sc.Canceled() {
				break
			}
			sc.xs = append(sc.xs, int(fx.TT[i]))
		}
	}
	return sc.xs, len(sc.hits)
}

// probeMap is Procedure 4 over the frozen columns: sweep the last segment's
// records in ascending time order and, for every record whose (d, seq+1-l)
// key is present in the probe table, emit the path travel time
// a_{l-1} - (a_0 - TT_0). The sweep is restricted to the only timestamps a
// matching record can have: within [minT, maxT + maxTrajectoryDuration] of
// the matched first segments. The samples are appended to the scratch
// buffer, which is returned.
func (ix *Index) probeMap(sc *Scratch, e network.EdgeID, l int, minT, maxT int64) []int {
	sc.xs = sc.xs[:0]
	if sc.n == 0 {
		return nil
	}
	fx := ix.frozen.Get(e)
	if fx == nil {
		return nil
	}
	ts := fx.Ts
	en := lowerBound(ts, maxT+ix.maxTrajDur+1)
	st := lowerBound(ts[:en], minT)
	seqShift := 1 - int32(l)
	for i := st; i < en; i++ {
		if (i-st)&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			break
		}
		if diff, ok := sc.lookup(packKey(int32(fx.Traj[i]), fx.Seq[i]+seqShift)); ok {
			sc.xs = append(sc.xs, int(fx.A[i]-diff))
		}
	}
	return sc.xs
}
