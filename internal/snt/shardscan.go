package snt

import (
	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// Sharded scatter-gather support (DESIGN.md §14). A sharded deployment
// splits the trajectory store into contiguous-id stripes, builds one Index
// per stripe, and answers a sub-query by merging the per-shard scans. For
// β > 0 the merge must reproduce the single-index scan order bit for bit,
// so a shard cannot return its travel-time samples alone: sample order
// erases the (timestamp, trajectory) identity the global β cutoff is
// defined over. ScanCandidates therefore returns the admitted
// first-segment records themselves — in the shard's scan order, β-bounded
// — and the router re-establishes the global order before applying β.
// Without a cutoff (β ≤ 0) every sample is kept, order is immaterial, and
// a shard returns only the statistics of its GetTravelTimesWith samples.

// Cand is one admitted first-segment candidate of a sharded scan: the
// Procedure 3 record identity (entry timestamp, shard-local trajectory id,
// sequence position) plus the sub-query's travel-time sample for the
// candidate, when one exists. For single-segment paths the sample is the
// record's own traversal time and HasX is always true; for longer paths it
// is the Procedure 4 probe-join result a_{l-1} - (a_0 - TT_0), and HasX is
// false when the trajectory left the path before its last segment.
type Cand struct {
	Ts   int64
	Traj traj.ID // shard-local id; the router ranks by (Ts, shard, Traj, Seq)
	Seq  int32
	X    int32
	HasX bool
}

// ScanCandidates runs Procedures 2-4 over this index for one sub-query and
// returns the admitted first-segment candidates in scan order, stopping
// after beta admissions (beta <= 0 scans exhaustively). anyData reports
// whether the path occurs in the trajectory string at all (the fallback
// trigger of Procedure 5 — a sharded caller must OR it across shards before
// falling back to the speed-limit estimate).
//
// The probe join is exact for every candidate the global merge can retain:
// a candidate admitted here bounds the shard's [minT, maxT] sweep window,
// and its unique matching last-segment record enters within maxTrajDur of
// the candidate's own timestamp, so the match lies inside the shard's
// restricted Procedure 4 window whenever it exists. Candidates beyond the
// global β cutoff are simply dropped by the router, samples and all.
//
// len(cands) is the shard's β-capped admitted count. Because per-shard
// counts are capped at the same beta the merged check uses,
// Σ_s min(count_s, β) ≥ β exactly when Σ_s count_s ≥ β, so the router can
// apply Procedure 5's "at least β matches" rule to the capped sum.
//
// The returned slice is freshly allocated and owned by the caller. If the
// scratch's cancel channel fires mid-scan the output is partial; callers
// must check sc.Canceled() and discard it, as with GetTravelTimesWith.
func (ix *Index) ScanCandidates(sc *Scratch, p network.Path, iv Interval, f Filter, beta int) (cands []Cand, anyData bool) {
	if len(p) == 0 {
		return nil, false
	}
	ranges, total := ix.isaRanges(sc, p)
	if total == 0 {
		return nil, false
	}
	if b, _ := ix.todBound(p[0], iv); b == 0 {
		// No record of the first segment at this time of day. A shard may
		// only reject on zero: its count is summed with the other shards'
		// against a global β, so "fewer than β here" decides nothing.
		return nil, true
	}
	if len(p) == 1 {
		return ix.scanCandsSingle(sc, p[0], ranges, iv, f, beta), true
	}
	return ix.scanCandsMulti(sc, p, ranges, iv, f, beta), true
}

// scanCandsSingle mirrors scanSingle: with l = 1 the candidate is its own
// probe match, so every admitted record carries its traversal time.
func (ix *Index) scanCandsSingle(sc *Scratch, e network.EdgeID, ranges []Range, iv Interval, f Filter, beta int) []Cand {
	fx := ix.frozen.Get(e)
	if fx == nil || fx.Len() == 0 {
		return nil
	}
	var cands []Cand
	if beta > 0 {
		cands = make([]Cand, 0, beta)
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
			cands = append(cands, Cand{Ts: fx.Ts[i], Traj: fx.Traj[i], Seq: fx.Seq[i], X: fx.TT[i], HasX: true})
			if beta > 0 && len(cands) >= beta {
				return false
			}
		}
		return true
	})
	return cands
}

// scanCandsMulti is buildMap + probeMap with candidate identity kept: the
// probe table maps (d, seq) to the candidate's index in the result slice,
// and the Procedure 4 sweep fills in X for the candidates it matches.
func (ix *Index) scanCandsMulti(sc *Scratch, p network.Path, ranges []Range, iv Interval, f Filter, beta int) []Cand {
	fx := ix.frozen.Get(p[0])
	if fx == nil || fx.Len() == 0 {
		return nil
	}
	ts := fx.Ts
	descending := !ix.opts.OldestFirst
	hint := beta
	if beta <= 0 {
		// Mirror buildMap's capped exhaustive-scan pre-size.
		const maxPresizeHint = 1 << 15
		hint = len(ts)
		if hint > maxPresizeHint {
			hint = maxPresizeHint
		}
	}
	sc.resetTable(hint)
	var (
		cands []Cand
		diffs []int32 // a_0 - TT_0 per candidate, consumed by the probe join
	)
	if beta > 0 {
		cands = make([]Cand, 0, beta)
		diffs = make([]int32, 0, beta)
	}
	s := newFrozenScan(ix, fx, ranges, f, beta)
	var minT, maxT int64
	forEachWindow(ts, iv, descending, func(st, en int) bool {
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
			t := fx.Ts[i]
			if len(cands) == 0 || t < minT {
				minT = t
			}
			if len(cands) == 0 || t > maxT {
				maxT = t
			}
			sc.insert(packKey(int32(fx.Traj[i]), fx.Seq[i]), int32(len(cands)))
			cands = append(cands, Cand{Ts: t, Traj: fx.Traj[i], Seq: fx.Seq[i]})
			diffs = append(diffs, fx.A[i]-fx.TT[i])
			if beta > 0 && len(cands) >= beta {
				return false
			}
		}
		return true
	})
	if len(cands) == 0 {
		return nil
	}
	last := ix.frozen.Get(p[len(p)-1])
	if last == nil {
		return cands
	}
	lts := last.Ts
	en := lowerBound(lts, maxT+ix.maxTrajDur+1)
	st := lowerBound(lts[:en], minT)
	seqShift := 1 - int32(len(p))
	for i := st; i < en; i++ {
		if (i-st)&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			break
		}
		if idx, ok := sc.lookup(packKey(int32(last.Traj[i]), last.Seq[i]+seqShift)); ok {
			c := &cands[idx]
			c.X = last.A[i] - diffs[idx]
			c.HasX = true
		}
	}
	return cands
}
