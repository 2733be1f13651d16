package snt

import (
	"fmt"
	"math/rand"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
	"pathhist/internal/treeforest"
	"pathhist/internal/workload"
)

// treeTravelTimes is the pre-freeze Procedure 3-5 implementation, verbatim:
// per-day Descend tree scans with per-record callbacks building a
// (d, seq) map, then an ascending probe scan. It is the order oracle the
// fused scans must match byte for byte.
func treeTravelTimes(ix *Index, forest *treeforest.Forest, p network.Path, iv Interval, f Filter, beta int) (xs []int, fallback bool) {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	ranges, total := ix.isaRanges(sc, p)
	if total == 0 {
		if len(p) == 1 {
			return []int{ix.g.EstimateTTSeconds(p[0])}, true
		}
		return nil, false
	}
	type mapKey struct {
		d   traj.ID
		seq int32
	}
	m := map[mapKey]int32{}
	var minT, maxT int64
	if phi := forest.Get(p[0]); phi != nil {
		visit := func(t int64, r temporal.Record) bool {
			rg := ranges[oraclePart(ix, r.Traj)]
			if int64(r.ISA) < rg.St || int64(r.ISA) >= rg.Ed {
				return true
			}
			if r.Traj == f.ExcludeTraj {
				return true
			}
			if f.User != traj.NoUser && ix.users[r.Traj] != f.User {
				return true
			}
			if len(m) == 0 || t < minT {
				minT = t
			}
			if len(m) == 0 || t > maxT {
				maxT = t
			}
			m[mapKey{r.Traj, r.Seq}] = r.A - r.TT
			return beta <= 0 || len(m) < beta
		}
		iv.EachRange(ix.tmin, ix.tmax, func(lo, hi int64) bool {
			done := false
			scan := func(t int64, r temporal.Record) bool {
				cont := visit(t, r)
				if !cont {
					done = true
				}
				return cont
			}
			phi.Descend(lo, hi, scan)
			return !done
		})
	}
	if len(m) < beta && iv.IsPeriodic() {
		return nil, false
	}
	if len(m) > 0 {
		if phi := forest.Get(p[len(p)-1]); phi != nil {
			phi.Ascend(minT, maxT+ix.maxTrajDur+1, func(t int64, r temporal.Record) bool {
				if diff, ok := m[mapKey{r.Traj, r.Seq + 1 - int32(len(p))}]; ok {
					xs = append(xs, int(r.A-diff))
				}
				return true
			})
		}
	}
	if len(xs) == 0 && len(p) == 1 {
		return []int{ix.g.EstimateTTSeconds(p[0])}, true
	}
	return xs, false
}

// oraclePart finds trajectory d's temporal partition by a linear search
// over the partitions' trajectory-id ranges — independent of Index.part, so
// the suites built on treeTravelTimes check that lookup.
func oraclePart(ix *Index, d traj.ID) int {
	lo := 0
	for w, p := range ix.parts {
		if int(d) < lo+p.trajs {
			return w
		}
		lo += p.trajs
	}
	panic(fmt.Sprintf("trajectory %d outside the %d partitions' id ranges", d, len(ix.parts)))
}

// TestFusedScansMatchTreeScans is the differential property test of the
// frozen scan path: on a realistic generated workload, for every index
// configuration (partitioning, scan order) and both of the paper's tree
// layouts rebuilt from the served columns, random sub-paths, random
// fixed/periodic/wrapped intervals, random β cutoffs and random filters,
// the fused GetTravelTimes reproduces the pre-freeze tree-scan
// implementation exactly — same samples in the same order, same fallback
// flag. Run under -race in CI like every concurrency suite.
func TestFusedScansMatchTreeScans(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 12
	cfg.Days = 25
	cfg.TargetTrips = 450
	ds := workload.BuildDataset(cfg)
	rng := rand.New(rand.NewSource(1234))

	for _, opts := range []Options{
		{},
		{PartitionDays: 7},
		{PartitionDays: 5},
	} {
		ix := Build(ds.G, ds.Store, opts)
		forests := []*treeforest.Forest{
			treeforest.FromFrozen(ix.frozen, treeforest.CSS),
			treeforest.FromFrozen(ix.frozen, treeforest.BPlus),
		}
		tmin, tmax := ix.TimeRange()
		for trial := 0; trial < 150; trial++ {
			tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
			tp := tr.Path()
			plen := 1 + rng.Intn(5)
			if plen > len(tp) {
				plen = len(tp)
			}
			off := rng.Intn(len(tp) - plen + 1)
			p := append(network.Path(nil), tp[off:off+plen]...)
			if rng.Intn(8) == 0 {
				p[rng.Intn(len(p))] = network.EdgeID(rng.Intn(ds.G.NumEdges()))
			}

			var iv Interval
			switch rng.Intn(4) {
			case 0:
				lo := tmin + rng.Int63n(tmax-tmin)
				iv = NewFixed(lo, lo+rng.Int63n(tmax-lo)+1)
			case 1:
				iv = PeriodicAround(tmin+rng.Int63n(tmax-tmin), 900+rng.Int63n(7200))
			case 2:
				iv = NewPeriodic(rng.Int63n(DaySeconds), 900) // may wrap midnight
			default:
				iv = NewPeriodic(rng.Int63n(DaySeconds), DaySeconds) // full-day tiling
			}
			f := NoFilter
			if rng.Intn(3) == 0 {
				f.User = traj.UserID(rng.Intn(cfg.Drivers))
			}
			if rng.Intn(4) == 0 {
				f.ExcludeTraj = tr.ID
			}
			beta := 0
			if rng.Intn(3) > 0 {
				beta = 1 + rng.Intn(30)
			}

			got, gotFb := ix.GetTravelTimes(p, iv, f, beta)
			for k, forest := range forests {
				kind := treeforest.Kind(k)
				want, wantFb := treeTravelTimes(ix, forest, p, iv, f, beta)
				if gotFb != wantFb {
					t.Fatalf("opts %+v %v trial %d: fallback %v vs %v (path %v iv %v f %+v beta %d)",
						opts, kind, trial, gotFb, wantFb, p, iv, f, beta)
				}
				if len(got) != len(want) {
					t.Fatalf("opts %+v %v trial %d: %d vs %d samples (path %v iv %v f %+v beta %d)\n got %v\nwant %v",
						opts, kind, trial, len(got), len(want), p, iv, f, beta, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("opts %+v %v trial %d: sample order diverges at %d (path %v iv %v f %+v beta %d)\n got %v\nwant %v",
							opts, kind, trial, i, p, iv, f, beta, got, want)
					}
				}
			}
			// CountMatches rides the same fused path; every accepted first
			// segment of a strict occurrence has exactly one probe partner,
			// so the exhaustive count equals the (tree-verified) sample count.
			if beta == 0 && !gotFb {
				if n := ix.CountMatches(p, iv, f, 0); n != len(got) {
					t.Fatalf("opts %+v trial %d: CountMatches %d vs %d samples", opts, trial, n, len(got))
				}
			}
		}
	}
}
