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
// candidate, the Procedure 4 result a_{l-1} - (a_0 - TT_0) (with l = 1, the
// record's own traversal time). Every candidate has its sample: a hit's
// trajectory covers the whole path (Index.join).
type Cand struct {
	Ts   int64
	Traj traj.ID // shard-local id; the router ranks by (Ts, shard, Traj, Seq)
	Seq  int32
	X    int32
}

// ScanCandidates runs Procedures 2-4 over this index for one sub-query and
// returns the admitted first-segment candidates in scan order, stopping
// after beta admissions (beta <= 0 scans exhaustively). anyData reports
// whether the path occurs in the trajectory string at all (the fallback
// trigger of Procedure 5 — a sharded caller must OR it across shards before
// falling back to the speed-limit estimate).
//
// len(cands) is the shard's β-capped admitted count. Because per-shard
// counts are capped at the same beta the merged check uses,
// Σ_s min(count_s, β) ≥ β exactly when Σ_s count_s ≥ β, so the router can
// apply Procedure 5's "at least β matches" rule to the capped sum.
// Candidates beyond the global β cutoff are simply dropped by the router,
// samples and all.
//
// The returned slice is freshly allocated and owned by the caller. If the
// scratch's cancel channel fires mid-scan the output is partial; callers
// must check sc.Canceled() and discard it, as with GetTravelTimesWith.
func (ix *Index) ScanCandidates(sc *Scratch, p network.Path, iv Interval, f Filter, beta int) (cands []Cand, anyData bool) {
	if len(p) == 0 {
		return nil, false
	}
	if !ix.scan(sc, p, iv, f, beta, 1) {
		return nil, false
	}
	if len(sc.xs) < len(sc.hits) || len(sc.hits) == 0 {
		return nil, true // cancelled mid-join, or no candidate
	}
	fx := ix.frozen.Get(p[0])
	cands = make([]Cand, len(sc.hits))
	for k, i := range sc.hits {
		if k&(cancelStride-1) == cancelStride-1 && sc.Canceled() {
			return cands, true
		}
		cands[k] = Cand{Ts: fx.Ts[i], Traj: fx.Traj[i], Seq: fx.Seq[i], X: int32(sc.xs[k])}
	}
	return cands, true
}
