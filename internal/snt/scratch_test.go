package snt

import "testing"

// TestGetTravelTimesWithMatchesAllocating checks that the scratch-based
// path and the allocating wrapper agree, and that scratch reuse across
// differently-shaped scans does not leak state between calls.
func TestGetTravelTimesWithMatchesAllocating(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	paths := [][]string{{"A", "B", "E"}, {"A"}, {"F"}, {"A", "C", "D", "E"}, {"B", "E"}}
	ivs := []Interval{NewFixed(0, 20), NewPeriodic(0, 900), NewFixed(3, 9)}
	for _, names := range paths {
		p := path(ids, names...)
		for _, iv := range ivs {
			for _, beta := range []int{0, 1, 2, 5} {
				want, wantFb := ix.GetTravelTimes(p, iv, NoFilter, beta)
				got, gotFb := ix.GetTravelTimesWith(sc, p, iv, NoFilter, beta)
				if wantFb != gotFb || len(want) != len(got) {
					t.Fatalf("%v %v β=%d: %v/%v vs %v/%v", names, iv, beta, want, wantFb, got, gotFb)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v %v β=%d: sample %d: %d vs %d", names, iv, beta, i, want[i], got[i])
					}
				}
				if n := ix.CountMatches(p, iv, NoFilter, 0); n != ix.CountMatchesWith(sc, p, iv, NoFilter, 0) {
					t.Fatalf("%v %v: CountMatches disagreement (%d)", names, iv, n)
				}
			}
		}
	}
}
