package snt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// ladderAlphas is the paper's interval-size list A; its reach αmax − αmin
// is what the query layer arms a Scratch with.
var ladderAlphas = []int64{15 * 60, 30 * 60, 45 * 60, 60 * 60, 90 * 60, 120 * 60}

const ladderReach = 120*60 - 15*60

// ladderRungs returns the effective windows of one widening ladder as the
// relaxation driver poses them: the base window resized through A around
// its centre, each shifted by s and enlarged by r.
func ladderRungs(t0, s, r int64) []Interval {
	base := PeriodicAround(t0, ladderAlphas[0])
	rungs := make([]Interval, len(ladderAlphas))
	for k, a := range ladderAlphas {
		base = base.Resize(a)
		rungs[k] = base.ShiftEnlarge(s, r)
	}
	return rungs
}

// TestWalkMemoLadders climbs random widening ladders over an unpartitioned
// and a weekly-partitioned index, on one Scratch armed with the ladder's
// reach and one unarmed, and requires the same samples and fallback flag
// at every rung, up to and including the first rung that passes. Windows
// wrap midnight, and large enlargements widen them past a day; filters
// name a user, exclude a trajectory, or both; β runs from 1 to 50. A ladder
// whose every rung fails walks its narrower-than-a-day rungs once on the
// armed Scratch (its first walk is widened and kept, and answers the rest),
// where the unarmed one walks each; a rung a day wide walks either way.
func TestWalkMemoLadders(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Drivers = 20
	cfg.Days = 60
	cfg.TargetTrips = 1500
	ds := workload.BuildDataset(cfg)
	rng := rand.New(rand.NewSource(45))
	for _, opts := range []Options{{}, {PartitionDays: 7}} {
		ix := Build(ds.G, ds.Store, opts)
		armed, plain := AcquireScratch(), AcquireScratch()
		armed.SetReach(ladderReach)
		failing, recalled, recalledPassed := 0, 0, 0
		for trial := 0; trial < 600; trial++ {
			tr := ds.Store.Get(traj.ID(rng.Intn(ds.Store.Len())))
			off := rng.Intn(tr.Len())
			p := append(network.Path(nil), tr.Path()[off:min(tr.Len(), off+1+rng.Intn(3))]...)
			t0 := tr.Seq[off].T
			switch rng.Intn(4) {
			case 0: // around midnight: the windows wrap
				t0 = t0 - t0%DaySeconds + int64(rng.Intn(3600)) - 1800
			case 1: // anywhere
				t0 += int64(rng.Intn(DaySeconds))
			}
			var s, r int64
			switch rng.Intn(3) {
			case 1:
				s, r = int64(rng.Intn(3600)), int64(rng.Intn(3600))
			case 2: // enlarged past a day somewhere up the ladder
				s, r = int64(rng.Intn(DaySeconds)), DaySeconds-int64(rng.Intn(2*3600))
			}
			user := tr.User
			if rng.Intn(4) == 0 {
				user = traj.UserID(rng.Intn(cfg.Drivers))
			}
			f := []Filter{
				{User: user, ExcludeTraj: -1},
				{User: user, ExcludeTraj: tr.ID},
				{User: traj.NoUser, ExcludeTraj: tr.ID},
			}[rng.Intn(3)]
			beta := 1 + rng.Intn(50)

			walks0, plainNarrow, plainWide := armed.walks, 0, 0
			passed := false
			for k, iv := range ladderRungs(t0, s, r) {
				label := fmt.Sprintf("opts %+v path %v filter %+v β %d rung %d %v", opts, p, f, beta, k, iv)
				pw, aw := plain.walks, armed.walks
				want, wantFb := ix.GetTravelTimesWith(plain, p, iv, f, beta)
				want = slices.Clone(want)
				got, gotFb := ix.GetTravelTimesWith(armed, p, iv, f, beta)
				if gotFb != wantFb || !slices.Equal(got, want) {
					t.Fatalf("%s: armed %v/%v, unarmed %v/%v", label, got, gotFb, want, wantFb)
				}
				if plain.walks > pw {
					if iv.Width < DaySeconds {
						plainNarrow++
					} else {
						plainWide++
					}
					if armed.walks == aw {
						recalled++
						if len(got) > 0 {
							recalledPassed++
						}
					}
				}
				if len(want) > 0 {
					passed = true
					break
				}
			}
			walks := armed.walks - walks0
			switch {
			case f.HasPredicate() && !passed:
				failing++
				if want := min(plainNarrow, 1) + plainWide; walks != want {
					t.Fatalf("opts %+v path %v filter %+v β %d t0 %d s %d r %d: a failing ladder walked %d times on the armed Scratch, want %d",
						opts, p, f, beta, t0, s, r, walks, want)
				}
			case !f.HasPredicate() && walks != plainNarrow+plainWide:
				t.Fatalf("opts %+v path %v filter %+v: a ladder without a user predicate walked %d times armed, %d unarmed",
					opts, p, f, walks, plainNarrow+plainWide)
			}
		}
		ReleaseScratch(armed)
		ReleaseScratch(plain)
		t.Logf("opts %+v: %d failing user-filtered ladders, %d rungs recalled, %d of them passed", opts, failing, recalled, recalledPassed)
		if failing < 50 || recalled < 100 || recalledPassed < 5 {
			t.Fatalf("opts %+v: too little exercised: %d failing ladders, %d rungs recalled, %d of them passed",
				opts, failing, recalled, recalledPassed)
		}
	}
}

// TestWalkMemoCancelAndRelease: a walk cut short by cancellation is not
// kept, so the next rung on that Scratch walks again; ReleaseScratch
// disarms the memo and drops its index and path.
func TestWalkMemoCancelAndRelease(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	ix := Build(ds.G, ds.Store, Options{})
	sc := AcquireScratch()
	sc.SetReach(ladderReach)
	// Find a user-filtered ladder whose first rung walks and fails.
	var p network.Path
	var f Filter
	var rungs []Interval
	for i := 0; i < ds.Store.Len() && rungs == nil; i++ {
		tr := ds.Store.Get(traj.ID(i))
		p, f = tr.Path()[:1], Filter{User: tr.User, ExcludeTraj: -1}
		rs := ladderRungs(tr.StartTime(), 0, 0)
		w := sc.walks
		if xs, _ := ix.GetTravelTimesWith(sc, p, rs[0], f, 50); xs == nil && sc.walks > w {
			rungs = rs
		}
	}
	if rungs == nil {
		t.Fatal("no ladder's first rung walked and failed")
	}
	if sc.memo.ix != ix {
		t.Fatal("a failed widened walk was not kept")
	}
	closed := make(chan struct{})
	close(closed)
	sc.SetCancel(closed)
	sc.memo.ix = nil // forget the walk above: the next rung must walk
	ix.GetTravelTimesWith(sc, p, rungs[1], f, 50)
	if sc.memo.ix != nil {
		t.Fatal("a cancelled walk was kept")
	}
	sc.SetCancel(nil)
	w := sc.walks
	ix.GetTravelTimesWith(sc, p, rungs[2], f, 50)
	if sc.walks != w+1 {
		t.Fatalf("the rung after a cancelled walk walked %d times, want 1", sc.walks-w)
	}
	w = sc.walks
	ix.GetTravelTimesWith(sc, p, rungs[3], f, 50)
	if sc.walks != w {
		t.Fatal("the rung after a kept walk walked again")
	}
	ReleaseScratch(sc)
	if sc.reach != 0 || sc.memo.ix != nil || len(sc.memo.path) != 0 {
		t.Fatalf("ReleaseScratch left reach %d, memo index %p, path %v", sc.reach, sc.memo.ix, sc.memo.path)
	}
}
