package snt

import (
	"math"

	"pathhist/internal/fmindex"
	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// Filter is the non-temporal trajectory predicate f of Section 2.3. The
// evaluated predicate is user equality (the one the paper's evaluation
// uses); ExcludeTraj additionally hides one trajectory id from results so
// that queries derived from indexed trajectories do not retrieve themselves
// (DESIGN.md §4, decision 5) — it is an evaluation artifact, not part of f,
// and survives predicate dropping.
type Filter struct {
	User        traj.UserID // traj.NoUser disables the user predicate
	ExcludeTraj traj.ID     // -1 disables self-exclusion
}

// NoFilter matches everything.
//
// Test seam for pathhist, pathhist/internal/card, pathhist/internal/query and
// pathhist/internal/sharded.
var NoFilter = Filter{User: traj.NoUser, ExcludeTraj: -1}

// HasPredicate reports whether a droppable non-temporal predicate is set
// (Procedure 1 line 9: "if f != ∅").
func (f Filter) HasPredicate() bool { return f.User != traj.NoUser }

// DropPredicates returns the filter with user predicates removed but
// self-exclusion kept.
func (f Filter) DropPredicates() Filter {
	return Filter{User: traj.NoUser, ExcludeTraj: f.ExcludeTraj}
}

// isaRanges is Procedure 2 over the scratch buffers: it fills sc.ranges
// with the per-partition ISA ranges of p and returns them with the summed
// range size c_P.
func (ix *Index) isaRanges(sc *Scratch, p network.Path) ([]Range, int64) {
	if cap(sc.syms) < len(p) {
		sc.syms = make([]int32, len(p))
	}
	syms := sc.syms[:len(p)]
	for i, e := range p {
		syms[i] = int32(e) + fmindex.MinEdgeSymbol
	}
	if cap(sc.ranges) < len(ix.parts) {
		sc.ranges = make([]Range, len(ix.parts))
	}
	ranges := sc.ranges[:len(ix.parts)]
	total := int64(0)
	for w := range ix.parts {
		st, ed := ix.parts[w].fm.GetISARange(syms)
		ranges[w] = Range{St: st, Ed: ed}
		total += ed - st
	}
	return ranges, total
}

// todBound is an upper bound on the number of e's records inside the
// interval, read off the segment's time-of-day census in a few adds
// (temporal.FrozenIndex.TodBound) — hence on the count Procedure 3 can
// admit, whatever the ISA ranges and the filter. held reports whether the
// segment has data here at all. Only a periodic window narrower than a day
// over a segment with data is bounded; anything else gets math.MaxInt.
func (ix *Index) todBound(e network.EdgeID, iv Interval) (bound int, held bool) {
	fx := ix.frozen.Get(e)
	if fx != nil && iv.Kind == Periodic && iv.Width < DaySeconds {
		return fx.TodBound(iv.TodStart, iv.Width), true
	}
	return math.MaxInt, fx != nil
}

// CannotReach reports whether the census alone proves that GetTravelTimesWith
// answers (nil, false) for this sub-query: β is required and the periodic
// window cannot hold β records of the first segment on all days together,
// so the enumeration would end in Procedure 5 line 7-8's rejection. It
// never fires for β ≤ 0, for fixed intervals, or for a segment without
// data (whose single-segment answer is the speed-limit estimate). Callers
// with something dearer than a few adds in front of the scan — the query
// engine's cache lookup — ask it first. It is CannotReachAll over one
// index.
func (ix *Index) CannotReach(p network.Path, iv Interval, beta int) bool {
	return CannotReachAll([]*Index{ix}, p, iv, beta)
}

// CannotReachAll is CannotReach over the union of several indexes — the
// stripes of a sharded deployment: the summed census bounds of p's first
// segment fall below β. Each index counts a subset of the records, so the
// sum bounds the union's count; an index without the segment adds 0, and
// one whose bound is unbounded (a saturated bucket) makes the sum
// unbounded. When no index holds the segment at all it never fires, which
// keeps the single-segment speed-limit fallback. The sum is never looser
// than one index over the same records would give: a bucket below
// saturation there is below it in every part, and the parts add up to it.
func CannotReachAll(ixs []*Index, p network.Path, iv Interval, beta int) bool {
	if beta <= 0 || len(p) == 0 {
		return false
	}
	sum, held := 0, false
	for _, ix := range ixs {
		b, ok := ix.todBound(p[0], iv)
		if !ok {
			continue
		}
		if b >= beta-sum {
			return false
		}
		sum, held = sum+b, true
	}
	return held
}

// GetTravelTimesWith is Procedure 5: retrieve the travel times of up to beta
// trajectories that traversed path p within interval iv and satisfy f. The
// fallback flag is set when the speed-limit estimate was returned because a
// single segment has no data at all (Section 2.2's estimateTT fallback).
//
// Semantics per the paper:
//   - empty ISA range in every partition: no trajectory ever traversed p;
//     single segments fall back to estimateTT, longer paths return nil;
//   - periodic intervals require at least beta matches, otherwise nil
//     (Procedure 5 line 7-8) so that the caller relaxes the sub-query — and
//     a window whose census bound is already below beta (CannotReach) gets
//     that answer without a record being visited;
//   - fixed intervals accept any non-empty match set regardless of beta.
//
// The returned slice aliases the caller-held scratch's sample buffer and
// is only valid until the next *With call on the same Scratch; callers that
// retain the samples must copy them out.
func (ix *Index) GetTravelTimesWith(sc *Scratch, p network.Path, iv Interval, f Filter, beta int) (xs []int, fallback bool) {
	if len(p) == 0 {
		return nil, false
	}
	ranges, total := ix.isaRanges(sc, p)
	if total == 0 {
		if len(p) == 1 {
			sc.xs = append(sc.xs[:0], ix.g.EstimateTTSeconds(p[0]))
			return sc.xs, true
		}
		return nil, false
	}
	if ix.CannotReach(p, iv, beta) {
		return nil, false
	}
	fx := ix.collect(sc, p[0], ranges, iv, f, beta)
	hits := sc.hits
	if len(hits) < beta && iv.IsPeriodic() {
		return nil, false
	}
	sc.xs = sc.xs[:0]
	if len(p) > 1 {
		// Samples come out in the join's sweep order.
		ix.join(sc, fx, p, func(_ int, x int32) { sc.xs = append(sc.xs, int(x)) })
		return sc.xs, false
	}
	if len(hits) == 0 {
		sc.xs = append(sc.xs, ix.g.EstimateTTSeconds(p[0]))
		return sc.xs, true
	}
	// With l = 1 a record can only match itself, so the hits are the
	// matches and the join collapses: their traversal times are emitted in
	// ascending time order (the hits reversed) — exactly the sequence the
	// join's ascending sweep would produce. β-free queries can accept the
	// whole column, so the emission polls at the admit loop's stride; a
	// cancelled emission returns partial samples, which the caller discards.
	for n := range hits {
		if n&(cancelStride-1) == 0 && sc.Canceled() {
			break
		}
		sc.xs = append(sc.xs, int(fx.TT[hits[len(hits)-1-n]]))
	}
	return sc.xs, false
}

// CountMatches returns |T^P| for the sub-query, scanning at most limit
// matches (0 = exhaustive). It powers the longest-prefix splitter σL, whose
// binary search needs exact cardinality tests (Section 3.3), and exact
// q-error evaluation (Section 5.3.4).
func (ix *Index) CountMatches(p network.Path, iv Interval, f Filter, limit int) int {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	return ix.CountMatchesWith(sc, p, iv, f, limit)
}

// CountMatchesWith is CountMatches over caller-held scratch state.
func (ix *Index) CountMatchesWith(sc *Scratch, p network.Path, iv Interval, f Filter, limit int) int {
	if len(p) == 0 {
		return 0
	}
	ranges, total := ix.isaRanges(sc, p)
	if b, _ := ix.todBound(p[0], iv); total == 0 || b == 0 {
		return 0
	}
	ix.collect(sc, p[0], ranges, iv, f, limit)
	return len(sc.hits)
}
