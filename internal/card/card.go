// Package card implements the SPQ cardinality estimator of Section 4.4. It
// estimates β̂, the number of trajectories a strict path query would
// retrieve, as
//
//	β̂ = sel_tod * sel_tf * sel_u * c_P
//
// where c_P is the exact path occurrence count from the FM-index, sel_tod
// the time-of-day selectivity (formula 1: uniform; formula 2: per-segment
// time-of-day histograms), sel_tf the timeframe selectivity (formula 3:
// naive min/max; or an exact CSS-tree range count), and sel_u the Selinger
// default of 1/10 for user predicates. The query processor uses β̂ < β to
// relax a sub-query without paying for an index scan.
package card

import (
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// Mode selects the estimator variant (Section 4.4 defines five; Off
// disables estimation, the plain "CSS"/"BT" configurations of Figure 11b).
type Mode int

// Estimator modes.
const (
	Off     Mode = iota
	ISA          // β̂ = c_P
	BTFast       // formulas (1) and (3)
	BTAcc        // formulas (2) and (3)
	CSSFast      // formula (1) + exact CSS range count
	CSSAcc       // formula (2) + exact CSS range count
)

var modeNames = map[Mode]string{
	Off: "Off", ISA: "ISA", BTFast: "BT-Fast", BTAcc: "BT-Acc",
	CSSFast: "CSS-Fast", CSSAcc: "CSS-Acc",
}

// String returns the paper's name for the mode.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return "mode(?)"
}

// SelU is the default selectivity of a user predicate, the 1/10 suggested by
// Selinger et al. (Section 4.4).
const SelU = 0.1

// todBucketSeconds is the bucket width of the time-of-day histograms the
// Acc modes read: 15 minutes, the granularity of the paper's introduction.
const todBucketSeconds = 900

// Estimator estimates SPQ cardinalities against an SNT-index.
type Estimator struct {
	ix   *snt.Index
	mode Mode
	// tod holds the per-partition per-segment time-of-day histograms H_e
	// of formula (2), derived from the index once; nil outside the Acc
	// modes.
	tod [][]*hist.TodHistogram
}

// New returns an estimator in the given mode. The Acc modes derive their
// time-of-day histograms here, in one pass over the index's records.
func New(ix *snt.Index, mode Mode) *Estimator {
	e := &Estimator{ix: ix, mode: mode}
	if mode == BTAcc || mode == CSSAcc {
		e.tod = ix.TodHistograms(todBucketSeconds)
	}
	return e
}

// Mode returns the configured mode.
func (e *Estimator) Mode() Mode { return e.mode }

// Enabled reports whether estimation is active.
func (e *Estimator) Enabled() bool { return e != nil && e.mode != Off }

// Estimate returns β̂ for the sub-query spq(p, iv, f, ·). With mode Off it
// returns ok=false and the caller must scan.
func (e *Estimator) Estimate(p network.Path, iv snt.Interval, f snt.Filter) (float64, bool) {
	if !e.Enabled() || len(p) == 0 {
		return 0, false
	}
	cP := float64(e.ix.PathCount(p))
	if e.mode == ISA {
		return cP, true
	}
	est := cP * e.selTod(p[0], iv) * e.selTf(p[0], iv)
	if f.HasPredicate() {
		est *= SelU
	}
	return est, true
}

// selTod is the time-of-day selectivity of a periodic predicate.
func (e *Estimator) selTod(e0 network.EdgeID, iv snt.Interval) float64 {
	if !iv.IsPeriodic() {
		return 1
	}
	if sel, ok := e.todSelectivity(e0, iv); ok {
		return sel
	}
	// Formula (1), also the Acc modes' answer on a segment without data.
	return float64(iv.Alpha()) / float64(snt.DaySeconds)
}

// todSelectivity is formula (2): the fraction of the segment's entry events
// whose time-of-day falls in the periodic window, summed over the
// partitions in order. ok is false outside the Acc modes, for a fixed
// interval, and for a segment without records.
func (e *Estimator) todSelectivity(e0 network.EdgeID, iv snt.Interval) (float64, bool) {
	if e.tod == nil || !iv.IsPeriodic() {
		return 0, false
	}
	var in, total float64
	for _, per := range e.tod {
		h := per[e0]
		if h == nil {
			continue
		}
		in += h.MassRange(iv.TodStart, iv.TodStart+iv.Width)
		total += float64(h.Total())
	}
	if total == 0 {
		return 0, false
	}
	return in / total, true
}

// selTf is the timeframe selectivity of a fixed predicate.
func (e *Estimator) selTf(e0 network.EdgeID, iv snt.Interval) float64 {
	if iv.IsPeriodic() {
		// A periodic predicate recurs over the whole timeframe.
		return 1
	}
	phi := e.ix.Frozen().Get(e0)
	if phi == nil || phi.Len() == 0 {
		return 0
	}
	switch e.mode {
	case CSSFast, CSSAcc:
		// Exact range size in O(log n) — an offset subtraction on the
		// frozen columns (Section 4.3.1's CSS-tree property). The BT modes
		// below could count the same way; they keep formula 3 because the
		// modes name the paper's formulas, not the container they run on.
		return float64(phi.CountRange(iv.Start, iv.End)) / float64(phi.Len())
	default:
		// Formula (3): naive ratio over [F[e0]min, F[e0]max].
		min, max := phi.MinKey(), phi.MaxKey()
		span := max - min
		if span <= 0 {
			if iv.Contains(min) {
				return 1
			}
			return 0
		}
		lo, hi := iv.Start, iv.End
		if lo < min {
			lo = min
		}
		if hi > max+1 {
			hi = max + 1
		}
		if hi <= lo {
			return 0
		}
		sel := float64(hi-lo) / float64(span)
		if sel > 1 {
			sel = 1
		}
		return sel
	}
}
