package card

import (
	"math/rand"
	"testing"

	"pathhist/internal/metrics"
	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// buildSkewedIndex indexes trips whose departures cluster at 08:00 (80%)
// and 16:00 (20%) over many days so that formula (1)'s uniformity
// assumption is badly wrong and formula (2) pays off.
func buildSkewedIndex(t testing.TB, opts snt.Options) (*snt.Index, map[string]network.EdgeID, *traj.Store) {
	t.Helper()
	g, ids := network.PaperExample()
	rng := rand.New(rand.NewSource(31))
	s := traj.NewStore()
	for d := 0; d < 200; d++ {
		n := 5 + rng.Intn(5)
		for k := 0; k < n; k++ {
			hour := int64(8)
			if rng.Float64() < 0.2 {
				hour = 16
			}
			t0 := int64(d)*snt.DaySeconds + hour*3600 + int64(rng.Intn(1800))
			tt1 := int32(3 + rng.Intn(5))
			tt2 := int32(4 + rng.Intn(5))
			s.Add(traj.UserID(rng.Intn(10)), []traj.Entry{
				{Edge: ids["A"], T: t0, TT: tt1},
				{Edge: ids["B"], T: t0 + int64(tt1), TT: tt2},
				{Edge: ids["E"], T: t0 + int64(tt1+tt2), TT: 5},
			})
		}
	}
	return snt.Build(g, s, opts), ids, s
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		Off: "Off", ISA: "ISA", BTFast: "BT-Fast", BTAcc: "BT-Acc",
		CSSFast: "CSS-Fast", CSSAcc: "CSS-Acc",
	} {
		if m.String() != want {
			t.Errorf("%v != %s", m, want)
		}
	}
	if Mode(99).String() != "mode(?)" {
		t.Error("unknown mode name")
	}
}

func TestOffMode(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{})
	e := New(ix, Off)
	if e.Enabled() {
		t.Error("Off should not be enabled")
	}
	if _, ok := e.Estimate(network.Path{ids["A"]}, snt.NewFixed(0, 10), snt.NoFilter); ok {
		t.Error("Off mode should not estimate")
	}
	var nilEst *Estimator
	if nilEst.Enabled() {
		t.Error("nil estimator should not be enabled")
	}
}

func TestISAMode(t *testing.T) {
	ix, ids, s := buildSkewedIndex(t, snt.Options{})
	e := New(ix, ISA)
	p := network.Path{ids["A"], ids["B"], ids["E"]}
	est, ok := e.Estimate(p, snt.NewPeriodic(8*3600, 900), snt.NoFilter)
	if !ok {
		t.Fatal("ISA should estimate")
	}
	// ISA ignores every predicate: the estimate is the full path count.
	if est != float64(s.Len()) {
		t.Errorf("ISA estimate = %v, want %d", est, s.Len())
	}
}

func TestUserPredicateSelectivity(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{})
	e := New(ix, CSSAcc)
	p := network.Path{ids["A"]}
	iv := snt.NewPeriodic(8*3600, 1800)
	plain, _ := e.Estimate(p, iv, snt.NoFilter)
	withUser, _ := e.Estimate(p, iv, snt.Filter{User: 3, ExcludeTraj: -1})
	if withUser != plain*SelU {
		t.Errorf("user predicate should scale by %v: %v vs %v", SelU, plain, withUser)
	}
}

func TestAccBeatsFastOnSkewedToD(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{})
	p := network.Path{ids["A"], ids["B"]}
	// Window on the morning peak: uniform assumption underestimates badly.
	iv := snt.NewPeriodic(8*3600, 1800)
	actual := float64(ix.CountMatches(p, iv, snt.NoFilter, 0))
	fast, _ := New(ix, BTFast).Estimate(p, iv, snt.NoFilter)
	acc, _ := New(ix, CSSAcc).Estimate(p, iv, snt.NoFilter)
	isa, _ := New(ix, ISA).Estimate(p, iv, snt.NoFilter)
	qFast := metrics.QError(fast, actual)
	qAcc := metrics.QError(acc, actual)
	qISA := metrics.QError(isa, actual)
	if qAcc > qFast || qAcc > qISA {
		t.Errorf("Acc should beat Fast and ISA: %.2f %.2f %.2f (actual %v, fast %v, acc %v, isa %v)",
			qAcc, qFast, qISA, actual, fast, acc, isa)
	}
	// The uniform assumption is badly wrong on the 80% morning peak.
	if qFast < 10 {
		t.Errorf("Fast should be far off on skewed data: q=%v", qFast)
	}
	// The Acc estimate should be quite close.
	if qAcc > 1.6 {
		t.Errorf("Acc q-error too high: %v", qAcc)
	}
	// On a selective off-peak window, ISA (which ignores all predicates)
	// overestimates heavily while Acc stays close.
	offPeak := snt.NewPeriodic(16*3600, 1800)
	actualOff := float64(ix.CountMatches(p, offPeak, snt.NoFilter, 0))
	isaOff, _ := New(ix, ISA).Estimate(p, offPeak, snt.NoFilter)
	accOff, _ := New(ix, CSSAcc).Estimate(p, offPeak, snt.NoFilter)
	if metrics.QError(isaOff, actualOff) < 3 {
		t.Errorf("ISA should be far off on a selective window: est %v actual %v", isaOff, actualOff)
	}
	if metrics.QError(accOff, actualOff) > 1.6 {
		t.Errorf("Acc off-peak q-error too high: est %v actual %v", accOff, actualOff)
	}
}

func TestFixedTimeframeSelectivity(t *testing.T) {
	ix, ids, s := buildSkewedIndex(t, snt.Options{})
	p := network.Path{ids["A"]}
	// First half of the data period.
	tmin, tmax := ix.TimeRange()
	mid := (tmin + tmax) / 2
	iv := snt.NewFixed(tmin, mid)
	actual := float64(ix.CountMatches(p, iv, snt.NoFilter, 0))
	exact, _ := New(ix, CSSFast).Estimate(p, iv, snt.NoFilter)
	naive, _ := New(ix, BTFast).Estimate(p, iv, snt.NoFilter)
	qExact := metrics.QError(exact, actual)
	qNaive := metrics.QError(naive, actual)
	if qExact > qNaive+1e-9 {
		t.Errorf("CSS exact count (%v, q=%.3f) should not lose to naive (%v, q=%.3f), actual %v",
			exact, qExact, naive, qNaive, actual)
	}
	// CSS-Fast on a fixed interval with no ToD factor equals the exact
	// count of first-segment entries in range, which is the actual
	// trajectory count here (each trajectory enters A exactly once).
	if qExact > 1.0001 {
		t.Errorf("CSS-Fast fixed-interval should be exact: est %v actual %v (store %d)", exact, actual, s.Len())
	}
}

func TestMissingSegmentSelectivity(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{})
	e := New(ix, CSSFast)
	// Segment F exists in the graph but has no data; c_P = 0 anyway.
	est, ok := e.Estimate(network.Path{ids["F"]}, snt.NewFixed(0, 100), snt.NoFilter)
	if !ok || est != 0 {
		t.Errorf("estimate for dataless segment = %v ok=%v", est, ok)
	}
	// Empty path.
	if _, ok := e.Estimate(nil, snt.NewFixed(0, 100), snt.NoFilter); ok {
		t.Error("empty path should not estimate")
	}
}

func TestAccFallsBackWithoutHistograms(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{})
	iv := snt.NewPeriodic(8*3600, 1800)
	// Segment F has no records, so no histogram is derived for it: the Acc
	// modes fall back to formula (1), the Fast modes' answer.
	acc, fast := New(ix, BTAcc), New(ix, BTFast)
	if a, f := acc.selTod(ids["F"], iv), fast.selTod(ids["F"], iv); a != f {
		t.Errorf("without a histogram Acc should equal Fast: %v vs %v", a, f)
	}
	// Segment A has one, and the skewed departures move it off formula (1).
	if a, f := acc.selTod(ids["A"], iv), fast.selTod(ids["A"], iv); a == f {
		t.Errorf("with a histogram Acc should leave formula (1): both %v", a)
	}
}

// TestTodSelectivity checks formula (2) over the histograms the Acc modes
// derive, summed over weekly partitions.
func TestTodSelectivity(t *testing.T) {
	ix, ids, _ := buildSkewedIndex(t, snt.Options{PartitionDays: 7})
	if ix.NumPartitions() < 2 {
		t.Fatalf("%d partitions, want several", ix.NumPartitions())
	}
	e := New(ix, CSSAcc)
	// All trips start 08:00-08:30 or 16:00-16:30, so a full-day window has
	// selectivity 1, a night window 0 and a 06:00-18:00 window 1.
	sel, ok := e.todSelectivity(ids["A"], snt.NewPeriodic(0, snt.DaySeconds))
	if !ok || sel < 0.999 {
		t.Errorf("full-day selectivity = %v ok=%v", sel, ok)
	}
	sel, ok = e.todSelectivity(ids["A"], snt.NewPeriodic(1*3600, 3600))
	if !ok || sel != 0 {
		t.Errorf("night selectivity = %v", sel)
	}
	day, ok := e.todSelectivity(ids["A"], snt.NewPeriodic(6*3600, 12*3600))
	if !ok || day < 0.9 {
		t.Errorf("day selectivity = %v", day)
	}
	// A Fast estimator derives no histograms and reports !ok.
	if _, ok := New(ix, CSSFast).todSelectivity(ids["A"], snt.NewPeriodic(0, 3600)); ok {
		t.Error("selectivity should be unavailable outside the Acc modes")
	}
	// Fixed intervals report !ok.
	if _, ok := e.todSelectivity(ids["A"], snt.NewFixed(0, 10)); ok {
		t.Error("fixed interval has no ToD selectivity")
	}
}
