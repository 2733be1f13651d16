package query

import (
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// Source is the data a travel-time query runs against, reduced to the three
// questions Procedures 1 and 6 ask of it. The engine answers them from one
// pinned index snapshot, the sharded router from a scatter over every live
// shard; the relaxation ladder itself exists once, in Run.
//
// Two sources produce bit-identical Results when their answers agree, which
// needs three guarantees (DESIGN.md §6): attempts are deterministic — the
// same query asked twice of the same data yields the same sample count,
// sum, histogram and fallback flag; counts are capped at β, so they cross β
// exactly when the true cardinality does; and samples are admitted in the
// global scan order, so a β cutoff keeps the same records whatever holds
// the data.
//
// An error from either function aborts the whole query: nothing accepted so
// far is returned. That is the cancellation contract — a source whose scan
// was cut short reports it as an error instead of handing back clipped data.
type Source struct {
	// Attempt runs Procedures 3–5 for one strict path query whose Interval
	// is already the effective (shifted and enlarged) one.
	Attempt func(q SPQ) (Outcome, error)
	// Count returns the number of trajectories matching q, capped at q.Beta
	// — the probe of the σL splitter.
	Count func(q SPQ) (int, error)
	// TMax is the end of the indexed time range; the terminal fallback of
	// Procedure 1 asks for everything in [0, TMax].
	TMax int64
}

// Outcome is a source's answer to one attempt: the sufficient statistics
// of the retrieved samples — their count, their exact sum and their
// histogram — or nothing: N == 0 sends the sub-query down the relaxation
// ladder. Hist may be shared (the terminal memo, other Results); the
// driver never mutates it.
type Outcome struct {
	N        int
	Sum      int64
	Hist     *hist.Histogram
	Fallback bool // speed-limit estimate, no data at all
	// How the answer came about, for the effort counters: an estimator skip
	// (β̂ < β, no scan issued), a terminal-memo reuse, or — neither set — a
	// scan that reached the index.
	Skipped bool
	Cached  bool
}

// OutcomeOf summarises retrieved samples into an outcome: their count, sum
// and histogram of the given bucket width. It is the one place a source
// turns samples into statistics; the samples are read, never retained, so
// a scan's scratch view may be passed straight in. No samples make the
// empty (failed) outcome.
func OutcomeOf(samples []int, bucketWidth int, fallback bool) Outcome {
	if len(samples) == 0 {
		return Outcome{}
	}
	var sum int64
	for _, x := range samples {
		sum += int64(x)
	}
	return Outcome{N: len(samples), Sum: sum, Hist: hist.FromSamples(samples, bucketWidth), Fallback: fallback}
}

func (o *Outcome) success() bool { return !o.Skipped && o.N > 0 }

// subQ is a pending sub-query in the processing queue. base is the
// un-shifted interval; the effective interval applied to the source adds the
// shift-and-enlarge offsets accumulated from completed predecessors at
// processing time (applying the shift lazily avoids double-shifting when a
// sub-query is widened and re-processed; DESIGN.md §4, decision 3).
type subQ struct {
	path     network.Path
	base     snt.Interval
	filter   snt.Filter
	beta     int
	widenIdx int  // position of base.Width in cfg.Alphas (periodic only)
	terminal bool // the Procedure 1 line 12 fallback: fixed [0,tmax], no β
}

// at is the strict path query the sub-query poses at an effective interval.
func (s *subQ) at(iv snt.Interval) SPQ {
	return SPQ{Path: s.path, Interval: iv, Filter: s.filter, Beta: s.beta}
}

// WithDefaults fills the ladder's zero-value fields: Alphas default to the
// paper's list, the bucket width to 10 s. (The partitioner is NOT defaulted
// — it must be chosen consciously.)
func (cfg Config) WithDefaults() Config {
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = DefaultAlphas
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 10
	}
	return cfg
}

// Run is Procedure 6 over any source: partition the query path (π, with the
// per-zone β overrides), process the sub-queries in path order — each failed
// attempt is replaced by its Procedure 1 relaxation — and convolve the
// accepted histograms. Only the ladder fields of cfg are read (Partitioner,
// Splitter, Alphas, BucketWidth, ZoneBetas, DisableShiftEnlarge). The Result
// carries Hist, Subs and the effort counters the outcomes reported; a source
// error returns the zero Result and that error.
func Run(cfg Config, g *network.Graph, src Source, q SPQ) (Result, error) {
	cfg = cfg.WithDefaults()
	return cfg.run(src, cfg.initialSubs(g, q))
}

// initialSubs partitions the query and applies the per-zone β overrides.
func (cfg *Config) initialSubs(g *network.Graph, q SPQ) []subQ {
	parts := cfg.Partitioner.Partition(g, q)
	subs := make([]subQ, 0, len(parts))
	for _, s := range parts {
		beta := s.Beta
		if cfg.ZoneBetas != nil && beta > 0 {
			if zb, ok := cfg.ZoneBetas[g.Edge(s.Path[0]).Zone]; ok {
				beta = zb
			}
		}
		subs = append(subs, subQ{
			path:     s.Path,
			base:     s.Interval,
			filter:   s.Filter,
			beta:     beta,
			widenIdx: cfg.widenIndexOf(s.Interval),
		})
	}
	return subs
}

// widenIndexOf locates the interval's width in A (the largest index whose
// α does not exceed the width, so foreign widths still widen correctly).
func (cfg *Config) widenIndexOf(iv snt.Interval) int {
	if !iv.IsPeriodic() {
		return 0
	}
	idx := 0
	for i, a := range cfg.Alphas {
		if iv.Width >= a {
			idx = i
		}
	}
	return idx
}

// driver is one query's pass through Procedure 6: the pending sub-queries
// (a stack, next in path order on top), the accepted ones in res.Subs, and
// the shift-and-enlarge accumulators of Section 4.2,
// S = Σ H_j^min and R = Σ (H_j^max - H_j^min).
type driver struct {
	cfg            *Config
	src            Source
	pending        []subQ
	res            Result
	shiftS, shiftR int64
}

// run processes the initial sub-queries (cfg must carry its defaults).
func (cfg *Config) run(src Source, initial []subQ) (Result, error) {
	d := driver{cfg: cfg, src: src, pending: make([]subQ, 0, len(initial)+2)}
	for i := len(initial) - 1; i >= 0; i-- {
		d.pending = append(d.pending, initial[i])
	}
	for len(d.pending) > 0 {
		sub := d.pending[len(d.pending)-1]
		d.pending = d.pending[:len(d.pending)-1]
		iv := sub.base
		if iv.IsPeriodic() && len(d.res.Subs) > 0 && !cfg.DisableShiftEnlarge {
			iv = iv.ShiftEnlarge(d.shiftS, d.shiftR)
		}
		o, err := src.Attempt(sub.at(iv))
		if err != nil {
			return Result{}, err
		}
		d.book(&o)
		if !o.success() {
			if err := d.relax(sub, iv); err != nil {
				return Result{}, err
			}
			continue
		}
		d.res.Subs = append(d.res.Subs, SubResult{
			Path:     sub.path,
			Interval: iv,
			Filter:   sub.filter,
			N:        o.N,
			Sum:      o.Sum,
			Hist:     o.Hist,
			Fallback: o.Fallback,
		})
		d.shiftS += int64(o.Hist.Min())
		d.shiftR += int64(o.Hist.Max() - o.Hist.Min())
	}
	d.res.Hist = convolveSubs(d.res.Subs)
	return d.res, nil
}

// book adds an attempt's effort to the result counters.
func (d *driver) book(o *Outcome) {
	switch {
	case o.Skipped:
		d.res.EstimatorSkips++
	case o.Cached:
		d.res.CacheHits++
	default:
		d.res.IndexScans++
	}
}

// relax is Procedure 1 (σ): widen the periodic interval to the next size in
// A; once A is exhausted split the path (σR or σL) and reset children to
// αmin; then drop non-temporal predicates; finally fall back to all data in
// the fixed interval [0, tmax] with no β. The replacements take the failed
// sub-query's place at the head of the queue, preserving path order.
func (d *driver) relax(sub subQ, effective snt.Interval) error {
	alphas := d.cfg.Alphas
	switch {
	case sub.base.IsPeriodic() && sub.widenIdx+1 < len(alphas):
		sub.widenIdx++
		sub.base = sub.base.Resize(alphas[sub.widenIdx])
		d.pending = append(d.pending, sub)
	case len(sub.path) > 1:
		m, err := d.splitPoint(sub, effective)
		if err != nil {
			return err
		}
		child := subQ{base: sub.base, filter: sub.filter, beta: sub.beta}
		if child.base.IsPeriodic() {
			child.base = child.base.Resize(alphas[0])
		}
		head, tail := child, child
		head.path, tail.path = sub.path[:m], sub.path[m:]
		d.pending = append(d.pending, tail, head)
	case sub.filter.HasPredicate():
		sub.filter = sub.filter.DropPredicates()
		d.pending = append(d.pending, sub)
	case !sub.terminal:
		d.pending = append(d.pending, subQ{
			path:     sub.path,
			base:     snt.NewFixed(0, d.src.TMax+1),
			filter:   sub.filter,
			terminal: true,
		})
	}
	// A failed terminal sub-query cannot happen — it always yields at least
	// the speed-limit estimate for a single segment — and is dropped.
	return nil
}

// splitPoint returns m so the path splits into P[0,m) and P[m,l).
func (d *driver) splitPoint(sub subQ, effective snt.Interval) (int, error) {
	l := len(sub.path)
	if d.cfg.Splitter == SigmaR || sub.beta <= 0 {
		return l / 2, nil
	}
	// σL: the largest m in [1, l-1] with |T^{P[0,m)}| >= β. Cardinality is
	// non-increasing in m, so binary search with exact counts (capped at β)
	// — this is the expense Figure 9 charges to σL.
	enough := func(m int) (bool, error) {
		probe := sub.at(effective)
		probe.Path = sub.path[:m]
		n, err := d.src.Count(probe)
		return n >= sub.beta, err
	}
	if ok, err := enough(1); err != nil || !ok {
		return 1, err // even a single segment falls short: minimal prefix
	}
	lo, hi := 1, l-1 // invariant: enough(lo), answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := enough(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// convolveSubs folds the sub-query histograms in path order.
func convolveSubs(subs []SubResult) *hist.Histogram {
	return hist.ConvolveAll(len(subs), func(i int) *hist.Histogram { return subs[i].Hist })
}
