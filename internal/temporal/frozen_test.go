package temporal

import (
	"math/rand"
	"slices"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// randomBuilder fills a builder with records over nEdges segments; equal
// timestamps are common (the tie order is part of the frozen contract).
func randomBuilder(rng *rand.Rand, nEdges, nRecs int) *ForestBuilder {
	b := NewForestBuilder(make([]int, nEdges))
	for i := 0; i < nRecs; i++ {
		e := network.EdgeID(rng.Intn(nEdges))
		t := int64(rng.Intn(nRecs / 2)) // dense keyspace forces duplicates
		b.Add(e, t, Record{
			ISA:  int32(i),
			Traj: traj.ID(i % 97),
			TT:   int32(1 + rng.Intn(300)),
			A:    int32(rng.Intn(10000)),
			Seq:  int32(rng.Intn(40)),
		})
	}
	return b
}

// equalColumns reports whether two slices are equal and equally nil.
func equalColumns[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestFrozenExtendMatchesForestExtend: appending a newer batch to the
// frozen columns yields the same layout as freezing one builder that holds
// base and batch together — column for column, tie order included. The
// batch skips segment 4 and opens segment 7, so untouched, extended and
// brand-new segments are all compared.
func TestFrozenExtendMatchesForestExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type add struct {
		e  network.EdgeID
		ts int64
		r  Record
	}
	var baseAdds, batchAdds []add
	for i := 0; i < 1000; i++ {
		e := network.EdgeID(rng.Intn(5))
		ts := int64(rng.Intn(500)) // dense keyspace forces duplicates
		r := Record{ISA: int32(i), Traj: traj.ID(i % 97), TT: int32(1 + rng.Intn(300)),
			A: int32(rng.Intn(10000)), Seq: int32(rng.Intn(40))}
		baseAdds = append(baseAdds, add{e, ts, r})
	}
	for i := 0; i < 400; i++ {
		e := network.EdgeID(rng.Intn(4))
		if i%50 == 0 {
			e = 7
		}
		ts := int64(3000 + rng.Intn(200)) // strictly after every base key, unsorted, with ties
		r := Record{Traj: traj.ID(i), Seq: int32(i % 9), TT: 5, A: 10, ISA: int32(i)}
		batchAdds = append(batchAdds, add{e, ts, r})
	}
	// build sizes a builder by counting its records first, as snt does.
	build := func(lists ...[]add) *ForestBuilder {
		counts := make([]int, 8)
		for _, l := range lists {
			for _, a := range l {
				counts[a.e]++
			}
		}
		b := NewForestBuilder(counts)
		for _, l := range lists {
			for _, a := range l {
				b.Add(a.e, a.ts, a.r)
			}
		}
		return b
	}
	base, batch, both := build(baseAdds), build(batchAdds), build(baseAdds, batchAdds)
	ff := base.Freeze()
	before := ff.NumRecords()
	got, err := ff.Extend(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ff.NumRecords() != before {
		t.Fatalf("Extend mutated the source snapshot: %d records, had %d", ff.NumRecords(), before)
	}
	want := both.Freeze()
	if want.NumRecords() != got.NumRecords() || want.NumIndexes() != got.NumIndexes() {
		t.Fatalf("shape %d/%d vs %d/%d", got.NumIndexes(), got.NumRecords(), want.NumIndexes(), want.NumRecords())
	}
	want.Each(func(e network.EdgeID, wx *FrozenIndex) {
		fx := got.Get(e)
		if fx == nil {
			t.Fatalf("edge %d: missing after Extend", e)
		}
		if !equalColumns(fx.Ts, wx.Ts) || !equalColumns(fx.Traj, wx.Traj) || !equalColumns(fx.Seq, wx.Seq) ||
			!equalColumns(fx.ISA, wx.ISA) || !equalColumns(fx.A, wx.A) || !equalColumns(fx.TT, wx.TT) {
			t.Fatalf("edge %d: extended columns diverge from the one-shot freeze", e)
		}
		if recount := recountCensus(wx.Ts); fx.Census() != recount || wx.Census() != recount {
			t.Fatalf("edge %d: census %v (extended) / %v (one-shot), recount of Ts %v", e, fx.Census(), wx.Census(), recount)
		}
		// Freeze allocates every column once at its final length.
		if cap(wx.Ts) != len(wx.Ts) || cap(wx.Traj) != len(wx.Traj) || cap(wx.Seq) != len(wx.Seq) ||
			cap(wx.ISA) != len(wx.ISA) || cap(wx.A) != len(wx.A) || cap(wx.TT) != len(wx.TT) {
			t.Fatalf("edge %d: frozen column with spare capacity", e)
		}
	})
}

// TestFrozenExtendRejectsOld: a batch starting before a segment's maximum
// is rejected without mutating anything.
func TestFrozenExtendRejectsOld(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ff := randomBuilder(rng, 3, 300).Freeze()
	before := ff.NumRecords()
	bad := NewForestBuilder(make([]int, 1))
	bad.Add(0, -1, Record{})
	if ext, err := ff.Extend(bad); err == nil || ext != nil {
		t.Fatal("stale batch accepted")
	}
	if ff.NumRecords() != before {
		t.Fatal("failed Extend mutated the frozen forest")
	}
}
