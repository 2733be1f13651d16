package query

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// fakeSource is an in-memory Source that records every question the driver
// asks. hit decides which attempts retrieve samples; prefix is the longest
// path prefix whose count reaches β; failAt > 0 makes the failAt-th question
// (attempts and counts together) return errFake.
type fakeSource struct {
	hit    func(q SPQ) []int
	prefix int
	failAt int
	asked  []string
}

var errFake = errors.New("fake source failure")

func describe(kind string, q SPQ) string {
	s := fmt.Sprintf("%s %v %v β=%d", kind, []network.EdgeID(q.Path), q.Interval, q.Beta)
	if q.Filter.HasPredicate() {
		s += fmt.Sprintf(" user=%d", q.Filter.User)
	}
	return s
}

func (f *fakeSource) ask(kind string, q SPQ) error {
	f.asked = append(f.asked, describe(kind, q))
	if len(f.asked) == f.failAt {
		return errFake
	}
	return nil
}

func (f *fakeSource) source() Source {
	return Source{
		Attempt: func(q SPQ) (Outcome, error) {
			if err := f.ask("scan", q); err != nil {
				return Outcome{}, err
			}
			return OutcomeOf(f.hit(q), 10, false), nil
		},
		Count: func(q SPQ) (int, error) {
			if err := f.ask("count", q); err != nil {
				return 0, err
			}
			if len(q.Path) <= f.prefix {
				return q.Beta, nil
			}
			return q.Beta - 1, nil
		},
		TMax: 999,
	}
}

// TestDriverLadder walks Procedure 1 rung by rung against a fake source:
// the one ladder the engine and the shard router both run is tested here,
// once, without an index.
func TestDriverLadder(t *testing.T) {
	const minute = 60
	alphas := []int64{15 * minute, 30 * minute, 60 * minute}
	noon := snt.PeriodicAround(12*3600, 15*minute)
	never := func(SPQ) []int { return nil }
	user7 := snt.Filter{User: 7, ExcludeTraj: -1}
	for _, tc := range []struct {
		name  string
		cfg   Config
		q     SPQ
		src   fakeSource
		asked []string
		subs  []string // the accepted sub-queries: path and effective interval
		err   error
	}{
		{
			name: "widen through every alpha",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Alphas: alphas},
			q:    SPQ{Path: network.Path{1}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{hit: func(q SPQ) []int { return map[int64][]int{60 * minute: {40, 50}}[q.Interval.Width] }},
			asked: []string{
				"scan [1] [11:52 +15m)^R β=5",
				"scan [1] [11:45 +30m)^R β=5",
				"scan [1] [11:30 +60m)^R β=5",
			},
			subs: []string{"[1] [11:30 +60m)^R"},
		},
		{
			name: "sigmaR halves the path and resets children to alpha-min",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Alphas: alphas[:1], DisableShiftEnlarge: true},
			q:    SPQ{Path: network.Path{1, 2, 3, 4, 5}, Interval: noon.Resize(60 * minute), Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{hit: func(q SPQ) []int { return map[int][]int{2: {20}, 3: {30}}[len(q.Path)] }},
			asked: []string{
				"scan [1 2 3 4 5] [11:30 +60m)^R β=5",
				"scan [1 2] [11:52 +15m)^R β=5",
				"scan [3 4 5] [11:52 +15m)^R β=5",
			},
			subs: []string{"[1 2] [11:52 +15m)^R", "[3 4 5] [11:52 +15m)^R"},
		},
		{
			name: "sigmaL splits at the longest prefix that reaches beta",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Splitter: SigmaL, Alphas: alphas[:1], DisableShiftEnlarge: true},
			q:    SPQ{Path: network.Path{1, 2, 3, 4, 5}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{prefix: 3, hit: func(q SPQ) []int { return map[int][]int{3: {30}, 2: {20}}[len(q.Path)] }},
			asked: []string{
				"scan [1 2 3 4 5] [11:52 +15m)^R β=5",
				"count [1] [11:52 +15m)^R β=5",
				"count [1 2 3] [11:52 +15m)^R β=5",
				"count [1 2 3 4] [11:52 +15m)^R β=5",
				"scan [1 2 3] [11:52 +15m)^R β=5",
				"scan [4 5] [11:52 +15m)^R β=5",
			},
			subs: []string{"[1 2 3] [11:52 +15m)^R", "[4 5] [11:52 +15m)^R"},
		},
		{
			name: "sigmaL takes the minimal prefix when one segment falls short",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Splitter: SigmaL, Alphas: alphas[:1], DisableShiftEnlarge: true},
			q:    SPQ{Path: network.Path{1, 2, 3}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{prefix: 0, hit: func(q SPQ) []int { return map[int][]int{1: {10}, 2: {20}}[len(q.Path)] }},
			asked: []string{
				"scan [1 2 3] [11:52 +15m)^R β=5",
				"count [1] [11:52 +15m)^R β=5",
				"scan [1] [11:52 +15m)^R β=5",
				"scan [2 3] [11:52 +15m)^R β=5",
			},
			subs: []string{"[1] [11:52 +15m)^R", "[2 3] [11:52 +15m)^R"},
		},
		{
			name: "predicate drop, then the terminal fallback",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Alphas: alphas[:2]},
			q:    SPQ{Path: network.Path{9}, Interval: noon, Filter: user7, Beta: 5},
			src:  fakeSource{hit: func(q SPQ) []int { return map[int][]int{0: {77}}[q.Beta] }},
			asked: []string{
				"scan [9] [11:52 +15m)^R β=5 user=7",
				"scan [9] [11:45 +30m)^R β=5 user=7",
				"scan [9] [11:45 +30m)^R β=5",
				"scan [9] [0, 1000) β=0",
			},
			subs: []string{"[9] [0, 1000)"},
		},
		{
			name: "accepted predecessors shift and enlarge the next window",
			cfg:  Config{Partitioner: Partitioner{Kind: Regular, P: 1}, Alphas: alphas[:1]},
			q:    SPQ{Path: network.Path{1, 2}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{hit: func(q SPQ) []int { return []int{120, 420} }},
			asked: []string{
				"scan [1] [11:52 +15m)^R β=5",
				"scan [2] [11:54 +20m)^R β=5", // +120 s shift, +300 s width
			},
			subs: []string{"[1] [11:52 +15m)^R", "[2] [11:54 +20m)^R"},
		},
		{
			name: "an attempt error mid-ladder aborts with nothing accepted",
			cfg:  Config{Partitioner: Partitioner{Kind: Regular, P: 1}, Alphas: alphas[:1], DisableShiftEnlarge: true},
			q:    SPQ{Path: network.Path{1, 2}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{failAt: 2, hit: func(q SPQ) []int { return []int{10} }},
			asked: []string{
				"scan [1] [11:52 +15m)^R β=5",
				"scan [2] [11:52 +15m)^R β=5",
			},
			err: errFake,
		},
		{
			name: "a count error aborts too",
			cfg:  Config{Partitioner: Partitioner{Kind: None}, Splitter: SigmaL, Alphas: alphas[:1]},
			q:    SPQ{Path: network.Path{1, 2, 3}, Interval: noon, Filter: snt.NoFilter, Beta: 5},
			src:  fakeSource{failAt: 3, prefix: 2, hit: never},
			asked: []string{
				"scan [1 2 3] [11:52 +15m)^R β=5",
				"count [1] [11:52 +15m)^R β=5",
				"count [1 2] [11:52 +15m)^R β=5",
			},
			err: errFake,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			res, err := Run(tc.cfg, nil, src.source(), tc.q)
			if !reflect.DeepEqual(src.asked, tc.asked) {
				t.Errorf("asked\n  %q\nwant\n  %q", src.asked, tc.asked)
			}
			if !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if err != nil {
				if !reflect.DeepEqual(res, Result{}) {
					t.Fatalf("a failed run returned %+v, want the zero Result", res)
				}
				return
			}
			var subs []string
			mass := 1.0
			for _, s := range res.Subs {
				subs = append(subs, fmt.Sprintf("%v %v", []network.EdgeID(s.Path), s.Interval))
				mass *= s.Hist.Total()
			}
			if !reflect.DeepEqual(subs, tc.subs) {
				t.Errorf("accepted %q, want %q", subs, tc.subs)
			}
			scans := 0
			for _, a := range tc.asked {
				if strings.HasPrefix(a, "scan") {
					scans++
				}
			}
			if res.IndexScans != scans || res.EstimatorSkips+res.CacheHits != 0 {
				t.Errorf("counters %+v after %d scans", res, scans)
			}
			if res.Hist == nil || res.Hist.Total() != mass {
				t.Errorf("convolved mass %v, want %v", res.Hist.Total(), mass)
			}
		})
	}
}

// TestDriverBooksOutcomeKinds: skips and memo hits reported by a source
// land in the matching Result counters.
func TestDriverBooksOutcomeKinds(t *testing.T) {
	answers := []Outcome{
		{Skipped: true},
		{N: 1, Sum: 10, Hist: hist.FromSamples([]int{10}, 10), Cached: true},
	}
	src := Source{Attempt: func(SPQ) (Outcome, error) {
		o := answers[0]
		answers = answers[1:]
		return o, nil
	}}
	cfg := Config{Partitioner: Partitioner{Kind: None}, Alphas: []int64{900, 1800}}
	q := SPQ{Path: network.Path{1}, Interval: snt.NewPeriodic(0, 900), Filter: snt.Filter{User: traj.NoUser, ExcludeTraj: -1}, Beta: 3}
	res, err := Run(cfg, nil, src, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatorSkips != 1 || res.CacheHits != 1 || res.IndexScans != 0 || len(res.Subs) != 1 {
		t.Fatalf("counters %+v", res)
	}
}
