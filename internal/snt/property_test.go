package snt

import (
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

// TestRandomQueriesAgainstBruteForce cross-checks the full index stack
// (FM-index ranges, temporal scans, partitioning, probe join) against the
// oracle on a realistic generated workload.
func TestRandomQueriesAgainstBruteForce(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 15
	cfg.Days = 30
	cfg.TargetTrips = 500
	ds := workload.BuildDataset(cfg)
	rng := rand.New(rand.NewSource(99))

	for _, opts := range []Options{
		{},
		{PartitionDays: 7},
		{PartitionDays: 3, OldestFirst: true},
	} {
		ix := Build(ds.G, ds.Store, opts)
		tmin, tmax := ix.TimeRange()
		for trial := 0; trial < 120; trial++ {
			// Random sub-path of a random trajectory (guaranteed to exist
			// at least once) — occasionally perturbed to a likely-absent
			// path.
			tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
			tp := tr.Path()
			plen := 1 + rng.Intn(6)
			if plen > len(tp) {
				plen = len(tp)
			}
			off := rng.Intn(len(tp) - plen + 1)
			p := append(network.Path(nil), tp[off:off+plen]...)
			if rng.Intn(8) == 0 {
				p[rng.Intn(len(p))] = network.EdgeID(rng.Intn(ds.G.NumEdges()))
			}

			var iv Interval
			switch rng.Intn(3) {
			case 0:
				lo := tmin + rng.Int63n(tmax-tmin)
				iv = NewFixed(lo, lo+rng.Int63n(tmax-lo)+1)
			case 1:
				iv = PeriodicAround(tmin+rng.Int63n(tmax-tmin), 900+rng.Int63n(7200))
			default:
				iv = NewPeriodic(rng.Int63n(DaySeconds), 900) // may wrap
			}
			f := NoFilter
			if rng.Intn(3) == 0 {
				f.User = traj.UserID(rng.Intn(cfg.Drivers))
			}
			if rng.Intn(4) == 0 {
				f.ExcludeTraj = tr.ID
			}

			got, fallback := ix.GetTravelTimes(p, iv, f, 0)
			want := referenceTravelTimes(ds.Store, p, iv, f)
			if fallback {
				// Fallback only fires when the path is a single segment
				// nobody ever traversed.
				if len(want) != 0 || len(p) != 1 {
					t.Fatalf("opts %+v trial %d: spurious fallback (want %d matches)", opts, trial, len(want))
				}
				continue
			}
			if !equalInts(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("opts %+v trial %d: path %v iv %v filter %+v: index %v vs oracle %v",
					opts, trial, p, iv, f, sortedCopy(got), sortedCopy(want))
			}
			// CountMatches agrees with the oracle's distinct-occurrence
			// count.
			if c := ix.CountMatches(p, iv, f, 0); c != len(want) {
				t.Fatalf("opts %+v trial %d: CountMatches %d vs oracle %d", opts, trial, c, len(want))
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
