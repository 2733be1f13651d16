package temporal

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/snapio"
	"pathhist/internal/traj"
)

// recountCensus is the census by definition: records per half-hour bucket
// of mod(t, day), capped at 255.
func recountCensus(ts []int64) (c [CensusBuckets]uint8) {
	for _, t := range ts {
		b := ((t%86400 + 86400) % 86400) / 1800
		if c[b] < 255 {
			c[b]++
		}
	}
	return c
}

// checkCensus requires census == recount(Ts) on every segment of the forest.
func checkCensus(t *testing.T, what string, ff *FrozenForest) {
	t.Helper()
	ff.Each(func(e network.EdgeID, fx *FrozenIndex) {
		if got, want := fx.Census(), recountCensus(fx.Ts); got != want {
			t.Fatalf("%s: segment %d census %v, recount of Ts %v", what, e, got, want)
		}
	})
}

// spreadBuilder adds n records per listed segment at random times of day
// over days [day0, day0+days), negative timestamps included when day0 < 0.
// Each record is a one-segment trajectory, with ids from first on.
func spreadBuilder(rng *rand.Rand, first int, edges []network.EdgeID, n int, day0, days int64) *ForestBuilder {
	b := NewForestBuilder(make([]int, slices.Max(edges)+1))
	d := traj.ID(first)
	for _, e := range edges {
		for i := 0; i < n; i++ {
			t := (day0+rng.Int63n(days))*86400 + rng.Int63n(86400)
			b.Add(e, t, Record{Traj: d, TT: 5, A: 5, ISA: int32(i)})
			d++
		}
	}
	return b
}

// snapRoundTrip writes the forest as the only section of a snapshot and
// reads it back through the copying or the zero-copy reader.
func snapRoundTrip(t *testing.T, ff *FrozenForest, mapped bool) *FrozenForest {
	t.Helper()
	var buf bytes.Buffer
	w := snapio.NewWriter(&buf)
	w.WriteHeader(snapio.Header{Sections: 1})
	w.Begin(1)
	ff.EncodeSnap(w)
	w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	open := snapio.NewReader
	if mapped {
		open = snapio.NewMappedReader
	}
	r, err := open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapForest(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCensusMaintained: every way a FrozenIndex comes into being leaves its
// census equal to a recount of its timestamp column — Freeze, Extend
// (untouched, extended and brand-new segments), both snapshot readers,
// Extend of a mapped index (detach) and WithISA.
func TestCensusMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ff := spreadBuilder(rng, 0, []network.EdgeID{0, 1, 2}, 300, -3, 40).Freeze()
	checkCensus(t, "Freeze", ff)

	// Segment 0 untouched, 1 and 2 extended, 9 brand new.
	batch := spreadBuilder(rng, ff.NumTrajs(), []network.EdgeID{1, 2, 9}, 120, 50, 10)
	ext, err := ff.Extend(batch)
	if err != nil {
		t.Fatal(err)
	}
	checkCensus(t, "Extend", ext)
	checkCensus(t, "Extend's source", ff)
	if ext.Get(0) != ff.Get(0) {
		t.Fatal("untouched segment not shared")
	}

	for _, mapped := range []bool{false, true} {
		loaded := snapRoundTrip(t, ext, mapped)
		checkCensus(t, "snapshot load", loaded)
		loaded.Each(func(e network.EdgeID, fx *FrozenIndex) {
			if fx.Mapped != mapped {
				t.Fatalf("segment %d: Mapped = %v through the mapped=%v reader", e, fx.Mapped, mapped)
			}
		})
		// Extending a loaded forest: a mapped one detaches its columns first.
		again, err := loaded.Extend(spreadBuilder(rng, loaded.NumTrajs(), []network.EdgeID{0, 9, 12}, 80, 70, 5))
		if err != nil {
			t.Fatal(err)
		}
		checkCensus(t, "Extend of a loaded forest", again)
		checkCensus(t, "loaded forest after its Extend", loaded)
		if again.Get(0).Mapped || again.Get(1).Mapped != mapped {
			t.Fatalf("mapped=%v: extended segment must own its columns, untouched one keep its flag", mapped)
		}
	}

	re := ext.Rewrite(func(_ network.EdgeID, fx *FrozenIndex) *FrozenIndex {
		return fx.WithISA(append([]int32(nil), fx.ISA...))
	})
	checkCensus(t, "WithISA", re)
}

// TestCensusSaturates: a bucket pushed past 255 by a batch stays 255, reads
// as "no bound", and leaves the other buckets exact.
func TestCensusSaturates(t *testing.T) {
	b := NewForestBuilder(make([]int, 4))
	for i := 0; i < 250; i++ {
		b.Add(3, int64(i%10)*86400+9*3600+int64(i), Record{Traj: traj.ID(i)}) // 09:00 bucket
	}
	b.Add(3, 23*3600, Record{Traj: 250})
	ff := b.Freeze()
	fx := ff.Get(3)
	if c := fx.Census(); c[18] != 250 || c[46] != 1 {
		t.Fatalf("census before saturation: 09:00 = %d, 23:00 = %d", c[18], c[46])
	}
	if got := fx.TodBound(9*3600, 900); got != 250 {
		t.Fatalf("TodBound below saturation = %d, want 250", got)
	}

	batch := NewForestBuilder(make([]int, 4))
	for i := 0; i < 20; i++ {
		batch.Add(3, 20*86400+9*3600+int64(i), Record{Traj: traj.ID(251 + i)})
	}
	ext, err := ff.Extend(batch)
	if err != nil {
		t.Fatal(err)
	}
	checkCensus(t, "saturating Extend", ext)
	fx = ext.Get(3)
	if c := fx.Census(); c[18] != 255 || c[46] != 1 {
		t.Fatalf("census after saturation: 09:00 = %d, 23:00 = %d", c[18], c[46])
	}
	if got := fx.TodBound(9*3600+60, 60); got != math.MaxInt {
		t.Fatalf("TodBound over a saturated bucket = %d, want MaxInt", got)
	}
	if got := fx.TodBound(22*3600, 2*3600+8*3600); got != 1 {
		t.Fatalf("TodBound 22:00–08:00 = %d, want 1", got)
	}
	checkCensus(t, "saturated, reloaded", snapRoundTrip(t, ext, true))
}

// TestTodBoundIsUpperBound: for random segments and random periodic windows
// — wrapping midnight, widths from one second to a day less one — the bound
// is never below the brute-force count of records inside the window, and is
// MaxInt exactly when an overlapped bucket is saturated.
func TestTodBoundIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for seg := 0; seg < 60; seg++ {
		// Records cluster in a few hours so some buckets saturate and many
		// stay empty.
		b := NewForestBuilder(make([]int, 1))
		n := 1 + rng.Intn(1500)
		hours := 1 + rng.Intn(6)
		base := rng.Int63n(86400)
		for i := 0; i < n; i++ {
			day := rng.Int63n(60) - 5
			b.Add(0, day*86400+base+rng.Int63n(int64(hours)*3600), Record{Traj: traj.ID(i)})
		}
		fx := b.Freeze().Get(0)
		census := recountCensus(fx.Ts)
		for trial := 0; trial < 300; trial++ {
			tod := rng.Int63n(86400)
			var width int64
			switch rng.Intn(4) {
			case 0:
				width = 1 + rng.Int63n(3)
			case 1:
				width = 86399 - rng.Int63n(3)
			default:
				width = 1 + rng.Int63n(86399)
			}
			count, saturated := 0, false
			for _, ts := range fx.Ts {
				if ((ts-tod)%86400+86400)%86400 < width {
					count++
				}
			}
			for s := int64(0); s < width; { // walk the window bucket by bucket
				sec := (tod + s) % 86400
				if census[sec/1800] == 255 {
					saturated = true
					break
				}
				s += 1800 - sec%1800
			}
			got := fx.TodBound(tod, width)
			if saturated != (got == math.MaxInt) {
				t.Fatalf("seg %d window [%d +%d): bound %d, saturated bucket overlapped = %v", seg, tod, width, got, saturated)
			}
			if got < count {
				t.Fatalf("seg %d window [%d +%d): bound %d below the true count %d", seg, tod, width, got, count)
			}
		}
	}
}

// TestSizeBytesCountsCensus: the census is part of the reported footprint,
// 48 bytes per segment with data on top of the columns and their headers.
func TestSizeBytesCountsCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ff := spreadBuilder(rng, 0, []network.EdgeID{0, 1, 2, 3}, 50, 0, 10).Freeze()
	const sliceHeader, mapEntry = 24, 48
	want := 2*sliceHeader + (len(ff.Cum)+len(ff.Start))*4 // the cumulative column and its offsets
	ff.Each(func(_ network.EdgeID, fx *FrozenIndex) {
		columns := 4*sliceHeader + fx.Len()*(8+3*4) // Ts + Traj, Seq, ISA
		if got := fx.SizeBytes(); got != columns+48 {
			t.Fatalf("SizeBytes = %d, want columns %d + 48", got, columns)
		}
		want += columns + 48 + mapEntry
	})
	if got := ff.SizeBytes(); got != want {
		t.Fatalf("forest SizeBytes = %d, want %d", got, want)
	}
}
