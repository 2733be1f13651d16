package snt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// referenceTravelTimes is the brute-force oracle for GetTravelTimes with
// unlimited beta: scan every trajectory, find every contiguous occurrence
// of the path whose first-segment entry time satisfies the interval and
// whose trajectory passes the filter, and emit the summed durations.
func referenceTravelTimes(s *traj.Store, p network.Path, iv Interval, f Filter) []int {
	var out []int
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(traj.ID(i))
		if tr.ID == f.ExcludeTraj {
			continue
		}
		if f.User != traj.NoUser && tr.User != f.User {
			continue
		}
		tp := tr.Path()
	occ:
		for off := 0; off+len(p) <= len(tp); off++ {
			for j := range p {
				if tp[off+j] != p[j] {
					continue occ
				}
			}
			if !iv.Contains(tr.Seq[off].T) {
				continue
			}
			sum := 0
			for j := range p {
				sum += int(tr.Seq[off+j].TT)
			}
			out = append(out, sum)
		}
	}
	return out
}

// denseStore is a store built to exercise the time-of-day census: every trip
// starts on segment A between 06:00 and 18:00 — the night hours are empty —
// and half of them between 08:00 and 09:00, so those two half-hour buckets
// hold far more than 255 records of A (saturated: no bound) while the
// others stay countable.
func denseStore(days, perDay int) (*network.Graph, *traj.Store) {
	g, ids := network.PaperExample()
	rng := rand.New(rand.NewSource(78))
	s := traj.NewStore()
	routes := [][]string{{"A", "B", "E"}, {"A", "C", "D", "E"}, {"A", "B", "F"}}
	for d := 0; d < days; d++ {
		for k := 0; k < perDay; k++ {
			tcur := int64(d)*DaySeconds + int64(6*3600+rng.Intn(12*3600))
			if k%2 == 0 {
				tcur = int64(d)*DaySeconds + int64(8*3600+rng.Intn(3600))
			}
			var seq []traj.Entry
			for _, name := range routes[rng.Intn(len(routes))] {
				tt := int32(3 + rng.Intn(10))
				seq = append(seq, traj.Entry{Edge: ids[name], T: tcur, TT: tt})
				tcur += int64(tt)
			}
			s.Add(traj.UserID(rng.Intn(5)), seq)
		}
	}
	s.SortByStart()
	return g, s
}

// isSubMultiset reports whether every value of sub occurs in all at least
// as often.
func isSubMultiset(sub, all []int) bool {
	counts := map[int]int{}
	for _, x := range all {
		counts[x]++
	}
	for _, x := range sub {
		if counts[x]--; counts[x] < 0 {
			return false
		}
	}
	return true
}

// TestRandomQueriesAgainstBruteForce cross-checks the full index stack
// (FM-index ranges, census rejection, temporal scans, partitioning, probe
// join) against the oracle: GetTravelTimes, CountMatches and ScanCandidates,
// at β ≤ 0 and at β around the census saturation point, on a realistic
// generated workload and on denseStore, whose windows fall in empty hours,
// in countable buckets and in saturated ones.
func TestRandomQueriesAgainstBruteForce(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 15
	cfg.Days = 30
	cfg.TargetTrips = 500
	ds := workload.BuildDataset(cfg)
	denseG, dense := denseStore(30, 150)
	rng := rand.New(rand.NewSource(99))
	betas := []int{0, 0, -1, 1, 10, 255, 256, 1000}

	for _, c := range []struct {
		name   string
		g      *network.Graph
		store  *traj.Store
		users  int
		trials int
	}{
		{"workload", ds.G, ds.Store, cfg.Drivers, 120},
		{"dense", denseG, dense, 5, 250},
	} {
		for _, opts := range []Options{
			{},
			{PartitionDays: 7},
			{PartitionDays: 3},
		} {
			ix := Build(c.g, c.store, opts)
			assertCensus(t, ix, c.name)
			tmin, tmax := ix.TimeRange()
			sc := AcquireScratch()
			// How the periodic β > 0 trials met the census: rejected on an
			// empty window, rejected below β, bounded but passed, unbounded.
			var empty, short, bounded, saturated int
			for trial := 0; trial < c.trials; trial++ {
				// Random sub-path of a random trajectory (guaranteed to exist
				// at least once) — occasionally perturbed to a likely-absent
				// path.
				tr := c.store.Get(traj.ID(rng.Intn(c.store.Len())))
				tp := tr.Path()
				plen := 1 + rng.Intn(6)
				if plen > len(tp) {
					plen = len(tp)
				}
				off := rng.Intn(len(tp) - plen + 1)
				p := append(network.Path(nil), tp[off:off+plen]...)
				if rng.Intn(8) == 0 {
					p[rng.Intn(len(p))] = network.EdgeID(rng.Intn(c.g.NumEdges()))
				}

				var iv Interval
				switch rng.Intn(4) {
				case 0:
					lo := tmin + rng.Int63n(tmax-tmin)
					iv = NewFixed(lo, lo+rng.Int63n(tmax-lo)+1)
				case 1:
					iv = PeriodicAround(tmin+rng.Int63n(tmax-tmin), 900+rng.Int63n(7200))
				case 2:
					iv = NewPeriodic(rng.Int63n(DaySeconds), 900) // may wrap
				default:
					widths := []int64{1, 60, 1800, 6 * 3600, 13 * 3600, DaySeconds - 1}
					iv = NewPeriodic(rng.Int63n(DaySeconds), widths[rng.Intn(len(widths))])
				}
				f := NoFilter
				if rng.Intn(3) == 0 {
					f.User = traj.UserID(rng.Intn(c.users))
				}
				if rng.Intn(4) == 0 {
					f.ExcludeTraj = tr.ID
				}
				beta := betas[rng.Intn(len(betas))]
				label := func() string {
					return fmt.Sprintf("%s opts %+v trial %d: path %v iv %v filter %+v beta %d", c.name, opts, trial, p, iv, f, beta)
				}

				want := referenceTravelTimes(c.store, p, iv, f)
				occurs := len(referenceTravelTimes(c.store, p, NewFixed(tmin, tmax+1), NoFilter)) > 0
				capped := len(want)
				if beta > 0 && capped > beta {
					capped = beta
				}
				if occurs && beta > 0 && iv.IsPeriodic() {
					switch bound, _ := ix.todBound(p[0], iv); {
					case bound == 0:
						empty++
					case bound < beta:
						short++
					case bound == math.MaxInt:
						saturated++
					default:
						bounded++
					}
				}

				// CountMatches is the oracle's occurrence count, capped at β.
				if n := ix.CountMatches(p, iv, f, beta); n != capped {
					t.Fatalf("%s: CountMatches %d vs oracle %d", label(), n, capped)
				}
				// ScanCandidates: the same count, and whether the path occurs
				// at all.
				cands, anyData := ix.ScanCandidates(sc, p, iv, f, beta)
				if anyData != occurs || len(cands) != capped {
					t.Fatalf("%s: ScanCandidates %d candidates, anyData %v; oracle %d, occurs %v",
						label(), len(cands), anyData, capped, occurs)
				}

				got, fallback := ix.GetTravelTimes(p, iv, f, beta)
				switch {
				case occurs && beta > 0 && iv.IsPeriodic() && len(want) < beta:
					// Procedure 5 line 7: fewer than β matches, rejected.
					if got != nil || fallback {
						t.Fatalf("%s: got %v fallback=%v although the oracle has %d < β", label(), got, fallback, len(want))
					}
				case len(p) == 1 && len(want) == 0:
					// A single segment with nothing to return — nobody ever
					// drove it, or nobody in this window and no β to fall
					// short of — answers with the speed-limit estimate.
					if !fallback || len(got) != 1 {
						t.Fatalf("%s: want the speed-limit fallback, got %v fallback=%v", label(), got, fallback)
					}
				case fallback:
					t.Fatalf("%s: spurious fallback (oracle has %d matches)", label(), len(want))
				case beta > 0:
					if len(got) != capped || !isSubMultiset(got, want) {
						t.Fatalf("%s: index %v is not %d of oracle %v", label(), sortedCopy(got), capped, sortedCopy(want))
					}
				default:
					if !equalInts(sortedCopy(got), sortedCopy(want)) {
						t.Fatalf("%s: index %v vs oracle %v", label(), sortedCopy(got), sortedCopy(want))
					}
				}
			}
			ReleaseScratch(sc)
			if c.name == "dense" && (empty == 0 || short == 0 || bounded == 0 || saturated == 0) {
				t.Fatalf("dense opts %+v: census cases not all drawn: %d empty, %d below β, %d bounded, %d saturated",
					opts, empty, short, bounded, saturated)
			}
		}
	}
}

// TestBetaSubsetProperty: with a beta limit, results are always a subset of
// the unlimited result multiset and respect the limit for periodic
// intervals.
func TestBetaSubsetProperty(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 10
	cfg.Days = 20
	cfg.TargetTrips = 400
	ds := workload.BuildDataset(cfg)
	ix := Build(ds.G, ds.Store, Options{})
	rng := rand.New(rand.NewSource(5))
	tmin, tmax := ix.TimeRange()
	for trial := 0; trial < 80; trial++ {
		tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
		tp := tr.Path()
		plen := 1 + rng.Intn(3)
		if plen > len(tp) {
			plen = len(tp)
		}
		p := tp[:plen]
		iv := NewFixed(tmin, tmax+1)
		beta := 1 + rng.Intn(5)
		all, _ := ix.GetTravelTimes(p, iv, NoFilter, 0)
		limited, _ := ix.GetTravelTimes(p, iv, NoFilter, beta)
		if len(limited) > len(all) {
			t.Fatalf("beta result larger than unlimited")
		}
		if len(all) >= beta && len(limited) < beta {
			t.Fatalf("beta=%d got %d despite %d available", beta, len(limited), len(all))
		}
		// Multiset subset check.
		counts := map[int]int{}
		for _, x := range all {
			counts[x]++
		}
		for _, x := range limited {
			counts[x]--
			if counts[x] < 0 {
				t.Fatalf("beta result %d not in unlimited multiset", x)
			}
		}
	}
}
