package query

import (
	"fmt"
	"math"
	"testing"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
)

// The tests in this file tie a sub-result's sufficient statistics — sample
// count, exact sum, histogram — to the samples they stand for: whatever
// route a sub-result took (a scan, a terminal-memo reuse, a full-result
// cache hit, the speed-limit fallback), it must summarise exactly the
// samples a fresh Procedure 5 scan of the same strict path query retrieves.

// statsMatchScan checks one final sub-query against a fresh scan of its
// strict path query at the interval that produced it. beta is the β the
// driver asked with: the query's, or 0 for the terminal [0, tmax] fallback.
func statsMatchScan(ix *snt.Index, s *SubResult, beta, bucketWidth int) error {
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	xs, fallback := ix.GetTravelTimesWith(sc, s.Path, s.Interval, s.Filter, beta)
	var sum int64
	for _, x := range xs {
		sum += int64(x)
	}
	if s.N != len(xs) || s.Sum != sum || s.Fallback != fallback {
		return fmt.Errorf("(n %d, sum %d, fallback %v), scan (n %d, sum %d, fallback %v)",
			s.N, s.Sum, s.Fallback, len(xs), sum, fallback)
	}
	if s.Hist == nil {
		return fmt.Errorf("no histogram for %d samples", len(xs))
	}
	if err := sameHist(s.Hist, hist.FromSamples(xs, bucketWidth)); err != nil {
		return fmt.Errorf("histogram: %w", err)
	}
	if got, want := s.MeanX(), meanInt(xs); math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("MeanX %v (bits %x), meanInt %v (bits %x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// TestSubResultStatsMatchSamples: for every final sub-query of a mixed
// workload — periodic and fixed intervals, user filters, σR and σL, the
// caches off and on, cold and warm — (N, Sum, Hist) equal (len, Σ,
// hist.FromSamples) of the samples snt.GetTravelTimesWith returns for the
// same strict path query, and MeanX has the bits meanInt computes over
// them. The mix is checked to reach the terminal [0, tmax] fallback and the
// single-segment speed-limit estimate.
func TestSubResultStatsMatchSamples(t *testing.T) {
	ix, qs := parEnv(t)
	_, tmax := ix.TimeRange()
	terminal := snt.NewFixed(0, tmax+1)
	// A segment no trajectory drove answers with the speed-limit estimate.
	noData := network.EdgeID(-1)
	for e := 0; e < ix.Graph().NumEdges(); e++ {
		if ix.PathCount(network.Path{network.EdgeID(e)}) == 0 {
			noData = network.EdgeID(e)
			break
		}
	}
	if noData < 0 {
		t.Fatal("every segment has data: no speed-limit fallback to check")
	}
	qs = qs[:len(qs):len(qs)]
	for _, q := range qs {
		// At β = 20 every user-filtered rung of this small dataset falls
		// short and drops its predicate; at β = 2 some are accepted.
		if q.Filter.HasPredicate() {
			q.Beta = 2
			qs = append(qs, q)
		}
	}
	qs = append(qs,
		SPQ{Path: network.Path{noData}, Interval: snt.PeriodicAround(8*3600, DefaultAlphas[0]), Filter: snt.NoFilter, Beta: 20},
		SPQ{Path: network.Path{noData}, Interval: snt.NewFixed(0, tmax/2), Filter: snt.NoFilter, Beta: 5},
	)
	for _, q := range qs {
		if q.Interval == terminal {
			t.Fatalf("query interval %v is the terminal one: the β of its subs would be ambiguous", q.Interval)
		}
	}
	const bucketWidth = 10
	var terminals, fallbacks, filtered, fixed, periodic int
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sigmaR-nocache", Config{Splitter: SigmaR, DisableCache: true, DisableFullResultCache: true}},
		{"sigmaL-nocache", Config{Splitter: SigmaL, DisableCache: true, DisableFullResultCache: true}},
		{"sigmaR-cache", Config{Splitter: SigmaR}},
		{"sigmaL-memo", Config{Splitter: SigmaL, DisableFullResultCache: true}},
	} {
		cfg := tc.cfg
		cfg.Partitioner = Partitioner{Kind: ZoneKind}
		cfg.BucketWidth = bucketWidth
		eng := NewEngine(ix, cfg)
		// Two passes: with a cache on, the second answers from it.
		for pass := 0; pass < 2; pass++ {
			for qi, q := range qs {
				res := eng.TripQuery(q)
				for i := range res.Subs {
					s := &res.Subs[i]
					beta := q.Beta
					if s.Interval == terminal {
						beta = 0
						terminals++
					}
					switch {
					case s.Fallback:
						fallbacks++
					case s.Filter.HasPredicate():
						filtered++
					case s.Interval.IsPeriodic():
						periodic++
					default:
						fixed++
					}
					if err := statsMatchScan(ix, s, beta, bucketWidth); err != nil {
						t.Fatalf("%s pass %d query %d sub %d (%v %v β=%d): %v", tc.name, pass, qi, i, s.Path, s.Interval, beta, err)
					}
				}
			}
		}
	}
	t.Logf("checked subs: %d periodic, %d fixed, %d user-filtered, %d terminal, %d speed-limit fallbacks",
		periodic, fixed, filtered, terminals, fallbacks)
	if terminals == 0 || fallbacks == 0 || filtered == 0 || fixed == 0 || periodic == 0 {
		t.Fatal("the mix missed a kind of sub-query")
	}
}

// TestMeanXExactAtScale: 2²⁰ samples of a full day less a second sum to
// under 2³⁷, far below 2⁵³, so every partial sum meanInt forms is still an
// exact integer and MeanX from (N, Sum) has meanInt's bits. A mixed set of
// the same size leaves a non-trivial rounding to the final division.
func TestMeanXExactAtScale(t *testing.T) {
	const n = 1 << 20
	same := make([]int, n)
	mixed := make([]int, n)
	for i := range same {
		same[i] = 86399
		mixed[i] = (i * 7919) % 86400
	}
	for name, xs := range map[string][]int{"constant": same, "mixed": mixed} {
		o := OutcomeOf(xs, 10, false)
		s := SubResult{N: o.N, Sum: o.Sum, Hist: o.Hist}
		if got, want := s.MeanX(), meanInt(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: MeanX %v, meanInt %v", name, got, want)
		}
		if s.N != n || s.Hist.NumSamples() != n {
			t.Fatalf("%s: n %d, histogram n %d", name, s.N, s.Hist.NumSamples())
		}
	}
	if (&SubResult{}).MeanX() != 0 {
		t.Fatal("MeanX of no samples is not 0")
	}
}

// meanInt is the mean of integer samples summed in order as float64: the
// reference MeanX must match bit for bit.
func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
