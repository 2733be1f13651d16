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
// ScanCandidates, CountMatchesWith — is collect followed, for paths of two
// or more segments, by join; each projects the same hits and matches onto
// its own result.

// collect is Procedure 3 over the frozen columns: visit segment e's records
// in scan order across the interval's windows, keep those whose ISA index
// falls in the partition's range and which pass the filter, and write
// their column offsets to sc.hits in scan order, stopping once beta are
// found (beta <= 0 scans exhaustively). Scan order is newest-first:
// windows newest first, records descending inside each, so the hits
// descend in column offset and their time bounds are their last and first
// entries' timestamps. It returns e's column (nil when e has no records;
// sc.hits is then empty).
func (ix *Index) collect(sc *Scratch, e network.EdgeID, ranges []Range, iv Interval, f Filter, beta int) *temporal.FrozenIndex {
	sc.hits = sc.hits[:0]
	fx := ix.frozen.Get(e)
	if fx == nil || fx.Len() == 0 {
		return nil
	}
	s := frozenScan{fx: fx, part: ix.part, users: ix.users, ranges: ranges, rg0: ranges[0], f: f}
	forEachWindow(fx.Ts, iv, func(st, en int) bool {
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
			sc.hits = append(sc.hits, int32(i))
			if beta > 0 && len(sc.hits) >= beta {
				return false
			}
		}
		return true
	})
	return fx
}

// join is Procedure 4 over the frozen columns for a path p of l >= 2
// segments, after collect returned first: the hits enter the probe table as
// (d, seq) → hit ordinal, and one ascending sweep of the last segment's
// records calls emit(h, x) for every record whose (d, seq+1-l) key names
// hit h, with the path travel time x = a_{l-1} - (a_0 - TT_0). The sequence
// number in the key guards against trajectories with circular paths
// (Section 4.1.3). The sweep is restricted to the only timestamps a
// matching record can have: within [minT, maxT + maxTrajectoryDuration] of
// the hits. emit must not be stored (it is stack-allocated at every call
// site to keep the scan path allocation-free).
func (ix *Index) join(sc *Scratch, first *temporal.FrozenIndex, p network.Path, emit func(h int, x int32)) {
	hits := sc.hits
	last := ix.frozen.Get(p[len(p)-1])
	if len(hits) == 0 || last == nil {
		return
	}
	sc.resetTable(len(hits))
	for k, i := range hits {
		if k&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			return
		}
		sc.insert(packKey(int32(first.Traj[i]), first.Seq[i]), int32(k))
	}
	hi, lo := hits[0], hits[len(hits)-1] // collect emits descending offsets
	ts := last.Ts
	en := lowerBound(ts, first.Ts[hi]+ix.maxTrajDur+1)
	st := lowerBound(ts[:en], first.Ts[lo])
	seqShift := 1 - int32(len(p))
	for i := st; i < en; i++ {
		if (i-st)&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			return
		}
		if h, ok := sc.lookup(packKey(int32(last.Traj[i]), last.Seq[i]+seqShift)); ok {
			a := hits[h]
			emit(int(h), last.A[i]-(first.A[a]-first.TT[a]))
		}
	}
}
