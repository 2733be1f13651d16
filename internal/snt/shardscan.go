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
	fx := ix.collect(sc, p, ranges, iv, f, beta)
	if len(sc.hits) == 0 {
		return nil, true
	}
	cands = make([]Cand, len(sc.hits))
	for k, i := range sc.hits {
		if k&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			return cands, true
		}
		c := &cands[k]
		*c = Cand{Ts: fx.Ts[i], Traj: fx.Traj[i], Seq: fx.Seq[i]}
		if len(p) == 1 {
			// With l = 1 the candidate is its own probe match.
			c.X, c.HasX = fx.TT[i], true
		}
	}
	if len(p) > 1 {
		ix.join(sc, fx, p, func(h int, x int32) { cands[h].X, cands[h].HasX = x, true })
	}
	return cands, true
}
