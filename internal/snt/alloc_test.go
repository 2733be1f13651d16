package snt

import (
	"fmt"
	"math/rand"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// TestScanAllocations pins the allocation contract of the scan over a held
// Scratch, once its buffers have grown to the query: GetTravelTimesWith and
// CountMatchesWith allocate nothing (the "zero-allocation scan path" of
// BenchmarkGetTravelTimesScratch), and ScanCandidates allocates only the
// candidate slice it returns. It covers single- and multi-segment paths,
// periodic and fixed intervals, with and without a user filter, at β 20
// and β 0, and checks that the scans it measures found something — all but
// a periodic window for one user at β 20, which no user here fills, so
// those scans end in Procedure 5's rejection. Every case runs on an unarmed
// Scratch and on one armed with the relaxation ladder's reach, whose
// user-filtered periodic scans walk a widened window and keep it in the
// walk memo, or are answered from it.
func TestScanAllocations(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 12
	cfg.Days = 25
	cfg.TargetTrips = 450
	ds := workload.BuildDataset(cfg)
	rng := rand.New(rand.NewSource(21))
	for _, opts := range []Options{{}, {PartitionDays: 7}} {
		ix := Build(ds.G, ds.Store, opts)
		tmin, tmax := ix.TimeRange()
		plain, armed := AcquireScratch(), AcquireScratch()
		armed.SetReach(ladderReach)
		found := map[string]bool{}
		for trial := 0; trial < 12; trial++ {
			tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
			tp := tr.Path()
			for _, plen := range []int{1, 3} {
				if plen > len(tp) {
					continue
				}
				p := append(network.Path(nil), tp[:plen]...)
				for _, iv := range []Interval{PeriodicAround(tr.StartTime(), 7200), NewFixed(tmin, tmax+1)} {
					for _, f := range []Filter{NoFilter, {User: tr.User, ExcludeTraj: -1}} {
						for _, c := range []struct {
							beta int
							sc   *Scratch
						}{{20, plain}, {0, plain}, {20, armed}, {0, armed}} {
							beta, sc := c.beta, c.sc
							label := fmt.Sprintf("opts %+v reach %d path %v iv %v filter %+v beta %d", opts, sc.reach, p, iv, f, beta)
							if a := testing.AllocsPerRun(20, func() { ix.GetTravelTimesWith(sc, p, iv, f, beta) }); a != 0 {
								t.Errorf("%s: GetTravelTimesWith allocates %v times per scan", label, a)
							}
							if a := testing.AllocsPerRun(20, func() { ix.CountMatchesWith(sc, p, iv, f, beta) }); a != 0 {
								t.Errorf("%s: CountMatchesWith allocates %v times per scan", label, a)
							}
							if a := testing.AllocsPerRun(20, func() { ix.ScanCandidates(sc, p, iv, f, beta) }); a > 1 {
								t.Errorf("%s: ScanCandidates allocates %v times per scan", label, a)
							}
							if xs, fallback := ix.GetTravelTimesWith(sc, p, iv, f, beta); len(xs) > 0 && !fallback {
								found[fmt.Sprintf("len %d %v user %v β %d reach %d", plen, iv.Kind, f.HasPredicate(), beta, sc.reach)] = true
							}
						}
					}
				}
			}
		}
		ReleaseScratch(plain)
		ReleaseScratch(armed)
		if len(found) != 28 {
			t.Fatalf("opts %+v: only %d of the 28 case shapes returned samples: %v", opts, len(found), found)
		}
	}
}
