package snt

import (
	"bytes"
	"fmt"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/treeforest"
	"pathhist/internal/workload"
)

// FuzzReadSnapshotBytes drives the snapshot loader with arbitrary file
// images. The loader's contract is fail-closed: truncations, bit flips,
// hostile section lengths and cross-section disagreements must all come
// back as errors — never a panic, never a huge allocation, and never a
// half-populated index. The copying and the zero-copy loader must reach
// the same verdict on every input, and anything they accept must answer
// the basic scan identically and re-snapshot to identical bytes.
func FuzzReadSnapshotBytes(f *testing.F) {
	g, ids, ix := snapshotFixture(f)
	seed := snapshotBytes(f, ix, 42)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-section
	f.Add(seed[:8])           // not even a full header
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/3] ^= 0x40 // checksum-breaking bit flip
	f.Add(corrupt)
	paths := []network.Path{path(ids, "A"), path(ids, "A", "B", "E"), path(ids, "A", "C", "D", "E")}
	intervals := []Interval{NewFixed(0, 40*DaySeconds), PeriodicAround(10*3600, 3600)}

	f.Fuzz(func(t *testing.T, data []byte) {
		re, epoch, err := ReadSnapshotBytes(g, data)
		mre, mepoch, merr := ReadSnapshotMapped(g, data)
		if (err == nil) != (merr == nil) {
			t.Fatalf("copying loader: %v; zero-copy loader: %v", err, merr)
		}
		if err != nil {
			return
		}
		if mepoch != epoch {
			t.Fatalf("epoch %d copied, %d mapped", epoch, mepoch)
		}
		st := re.Stats()
		if st.Trajs < 0 || st.Records < 0 {
			t.Fatalf("accepted snapshot with negative stats: %+v", st)
		}
		for _, p := range paths {
			for _, iv := range intervals {
				xs, fb := re.GetTravelTimes(p, iv, NoFilter, 0)
				mxs, mfb := mre.GetTravelTimes(p, iv, NoFilter, 0)
				if fb != mfb || !equalInts(xs, mxs) {
					t.Fatalf("%v %v: copied %v fallback %v, mapped %v fallback %v", p, iv, xs, fb, mxs, mfb)
				}
				if n, mn := re.CountMatches(p, iv, NoFilter, 5), mre.CountMatches(p, iv, NoFilter, 5); n != mn {
					t.Fatalf("%v %v: CountMatches copied %d, mapped %d", p, iv, n, mn)
				}
			}
		}
		if !bytes.Equal(snapshotBytes(t, re, epoch), snapshotBytes(t, mre, epoch)) {
			t.Fatal("copied and mapped loads re-snapshot to different bytes")
		}
	})
}

// FuzzScanMatchesOracle drives the scan — collect and join behind
// GetTravelTimes, CountMatches and ScanCandidates — with arbitrary
// sub-queries over one small generated dataset, indexed unpartitioned and
// in 7-day partitions. The fuzzed inputs pick a trajectory and the offset
// and length of the path taken from it, the interval's kind, start and
// width, β, the user predicate and the excluded trajectory. Every answer
// is held to its oracle: GetTravelTimes to the tree-scan implementation
// (same samples in the same order, same fallback flag), CountMatches and
// ScanCandidates to the brute-force occurrence count, and the Procedure 5
// replay of the candidates to GetTravelTimes.
func FuzzScanMatchesOracle(f *testing.F) {
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 8
	cfg.Days = 15
	cfg.TargetTrips = 200
	ds := workload.BuildDataset(cfg)
	type fixture struct {
		ix     *Index
		forest *treeforest.Forest
	}
	var fixtures []fixture
	for _, opts := range []Options{{}, {PartitionDays: 7}} {
		ix := Build(ds.G, ds.Store, opts)
		fixtures = append(fixtures, fixture{ix, treeforest.FromFrozen(ix.frozen, treeforest.CSS)})
	}
	tmin, tmax := fixtures[0].ix.TimeRange()

	f.Add(uint16(0), uint8(0), uint8(1), uint8(0), int64(0), int64(1<<40), int16(0), int8(-1), int32(-1))
	f.Add(uint16(7), uint8(1), uint8(3), uint8(1), int64(8*3600), int64(7200), int16(20), int8(-1), int32(-1))
	f.Add(uint16(42), uint8(0), uint8(2), uint8(1), int64(23*3600), int64(3600), int16(1), int8(3), int32(42))
	f.Add(uint16(99), uint8(2), uint8(4), uint8(0), int64(1<<20), int64(1<<21), int16(5), int8(2), int32(-1))
	f.Add(uint16(150), uint8(0), uint8(1), uint8(1), int64(0), int64(DaySeconds), int16(-1), int8(-1), int32(150))

	f.Fuzz(func(t *testing.T, trip uint16, off, plen, kind uint8, start, width int64, beta int16, user int8, exclude int32) {
		tp := ds.Store.Get(traj.ID(int(trip) % ds.Store.Len())).Path()
		o := int(off) % len(tp)
		l := 1 + int(plen)%(len(tp)-o)
		p := append(network.Path(nil), tp[o:o+l]...)
		var iv Interval
		if kind%2 == 0 {
			lo := tmin + mod(start, tmax-tmin+1)
			iv = NewFixed(lo, lo+1+mod(width, tmax+1-lo))
		} else {
			iv = NewPeriodic(mod(start, DaySeconds), 1+mod(width, DaySeconds))
		}
		flt := NoFilter
		if user >= 0 {
			flt.User = traj.UserID(int(user) % cfg.Drivers)
		}
		if exclude >= 0 {
			flt.ExcludeTraj = traj.ID(int(exclude) % ds.Store.Len())
		}
		b := int(beta)
		label := fmt.Sprintf("path %v iv %v filter %+v beta %d", p, iv, flt, b)

		want := referenceTravelTimes(ds.Store, p, iv, flt)
		occurs := len(referenceTravelTimes(ds.Store, p, NewFixed(tmin, tmax+1), NoFilter)) > 0
		capped := len(want)
		if b > 0 && capped > b {
			capped = b
		}
		for k, fx := range fixtures {
			ix := fx.ix
			got, gotFb := ix.GetTravelTimes(p, iv, flt, b)
			tree, treeFb := treeTravelTimes(ix, fx.forest, p, iv, flt, b)
			if gotFb != treeFb || !equalInts(got, tree) {
				t.Fatalf("index %d %s: GetTravelTimes %v fallback %v, tree scan %v fallback %v", k, label, got, gotFb, tree, treeFb)
			}
			if n := ix.CountMatches(p, iv, flt, b); n != capped {
				t.Fatalf("index %d %s: CountMatches %d, oracle %d", k, label, n, capped)
			}
			sc := AcquireScratch()
			cands, anyData := ix.ScanCandidates(sc, p, iv, flt, b)
			ReleaseScratch(sc)
			if anyData != occurs || len(cands) != capped {
				t.Fatalf("index %d %s: ScanCandidates %d candidates, anyData %v; oracle %d, occurs %v", k, label, len(cands), anyData, capped, occurs)
			}
			// Candidates keep scan order and the join emits in it, so the
			// replay matches sample for sample.
			re, reFb := reconstructFromCands(ix, p, cands, anyData, iv, b)
			if reFb != gotFb || !equalInts(re, got) {
				t.Fatalf("index %d %s: candidates replay to %v fallback %v, GetTravelTimes %v fallback %v", k, label, re, reFb, got, gotFb)
			}
		}
	})
}
