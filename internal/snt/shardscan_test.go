package snt

import (
	"math/rand"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// reconstructFromCands replays the Procedure 5 decision ladder over a
// candidate scan — the single-shard degenerate case of the sharded router's
// merge, where the merged order is exactly the shard's scan order. It must
// reproduce GetTravelTimes bit for bit.
func reconstructFromCands(ix *Index, p network.Path, cands []Cand, anyData bool, iv Interval, beta int) (xs []int, fallback bool) {
	if !anyData {
		if len(p) == 1 {
			return []int{ix.g.EstimateTTSeconds(p[0])}, true
		}
		return nil, false
	}
	if len(cands) < beta && iv.IsPeriodic() {
		return nil, false
	}
	if len(p) == 1 && len(cands) == 0 {
		return []int{ix.g.EstimateTTSeconds(p[0])}, true
	}
	// Samples come out in hit order, the candidates' scan order.
	for _, c := range cands {
		xs = append(xs, int(c.X))
	}
	return xs, false
}

func TestScanCandidatesMatchesGetTravelTimes(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 15
	cfg.Days = 30
	cfg.TargetTrips = 500
	ds := workload.BuildDataset(cfg)
	rng := rand.New(rand.NewSource(1234))

	for _, opts := range []Options{
		{},
		{PartitionDays: 3},
		{PartitionDays: 7},
	} {
		ix := Build(ds.G, ds.Store, opts)
		tmin, tmax := ix.TimeRange()
		sc := AcquireScratch()
		for trial := 0; trial < 200; trial++ {
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
				iv = NewPeriodic(rng.Int63n(DaySeconds), 900)
			}
			f := NoFilter
			if rng.Intn(3) == 0 {
				f.User = traj.UserID(rng.Intn(cfg.Drivers))
			}
			beta := 0
			if rng.Intn(4) != 0 {
				beta = 1 + rng.Intn(30)
			}

			want, wantFall := ix.GetTravelTimes(p, iv, f, beta)
			cands, anyData := ix.ScanCandidates(sc, p, iv, f, beta)
			got, gotFall := reconstructFromCands(ix, p, cands, anyData, iv, beta)
			if gotFall != wantFall {
				t.Fatalf("opts %+v trial %d: fallback %v vs %v (path %v iv %v beta %d)",
					opts, trial, gotFall, wantFall, p, iv, beta)
			}
			// The reconstruction must match the emission sequence exactly,
			// at every path length: both are in hit order, the order the
			// merge preserves.
			if !equalInts(got, want) {
				t.Fatalf("opts %+v trial %d: sequence %v vs %v (path %v iv %v filter %+v beta %d)",
					opts, trial, got, want, p, iv, f, beta)
			}
			// The candidate count is the β-capped admitted count the merged
			// Procedure 5 check and the σL splitter sum across shards.
			if anyData {
				if c := ix.CountMatchesWith(sc, p, iv, f, beta); c != len(cands) {
					t.Fatalf("opts %+v trial %d: count %d vs %d candidates", opts, trial, c, len(cands))
				}
			}
		}
		ReleaseScratch(sc)
	}
}
