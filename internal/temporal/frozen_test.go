package temporal

import (
	"math/rand"
	"slices"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// add is one ForestBuilder.Add call.
type add struct {
	e  network.EdgeID
	ts int64
	r  Record
}

// randomAdds returns nRecs records over nEdges segments in trajectory-major
// order, as Add takes them: trajectories of 1 to 40 segments with ids from
// first on, random traversal times and their running aggregates, at random
// timestamps in [t0, t0+span) — a dense keyspace, so equal timestamps are
// common (the tie order is part of the frozen contract).
func randomAdds(rng *rand.Rand, first traj.ID, nEdges, nRecs int, t0, span int64) []add {
	var adds []add
	d, seq, agg := first, int32(0), int32(0)
	for i := 0; i < nRecs; i++ {
		if seq > 0 && rng.Intn(20) == 0 || seq == 40 {
			d, seq, agg = d+1, 0, 0
		}
		tt := int32(1 + rng.Intn(300))
		agg += tt
		adds = append(adds, add{network.EdgeID(rng.Intn(nEdges)), t0 + rng.Int63n(span),
			Record{ISA: int32(i), Traj: d, TT: tt, A: agg, Seq: seq}})
		seq++
	}
	return adds
}

// builderOf sizes a builder by counting its records first, as snt does,
// and adds them.
func builderOf(nEdges int, lists ...[]add) *ForestBuilder {
	counts := make([]int, nEdges)
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

// randomBuilder fills a builder with records over nEdges segments.
func randomBuilder(rng *rand.Rand, nEdges, nRecs int) *ForestBuilder {
	return builderOf(nEdges, randomAdds(rng, 0, nEdges, nRecs, 0, int64(nRecs/2)))
}

// equalColumns reports whether two slices are equal and equally nil.
func equalColumns[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestFrozenExtendMatchesForestExtend: appending a newer batch to the
// frozen columns yields the same layout as freezing one builder that holds
// base and batch together — column for column, tie order included, and the
// cumulative column with its offsets too. The batch skips segment 4 and
// opens segment 7, so untouched, extended and brand-new segments are all
// compared.
func TestFrozenExtendMatchesForestExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	baseAdds := randomAdds(rng, 0, 5, 1000, 0, 500)
	// Strictly after every base key, unsorted, with ties.
	batchAdds := randomAdds(rng, baseAdds[len(baseAdds)-1].r.Traj+1, 4, 400, 3000, 200)
	for i := range batchAdds {
		if i%50 == 0 {
			batchAdds[i].e = 7
		}
	}
	base, batch, both := builderOf(8, baseAdds), builderOf(8, batchAdds), builderOf(8, baseAdds, batchAdds)
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
	if !slices.Equal(got.Cum, want.Cum) || !slices.Equal(got.Start, want.Start) {
		t.Fatal("extended cumulative column diverges from the one-shot freeze")
	}
	want.Each(func(e network.EdgeID, wx *FrozenIndex) {
		fx := got.Get(e)
		if fx == nil {
			t.Fatalf("edge %d: missing after Extend", e)
		}
		if !equalColumns(fx.Ts, wx.Ts) || !equalColumns(fx.Traj, wx.Traj) || !equalColumns(fx.Seq, wx.Seq) ||
			!equalColumns(fx.ISA, wx.ISA) {
			t.Fatalf("edge %d: extended columns diverge from the one-shot freeze", e)
		}
		if recount := recountCensus(wx.Ts); fx.Census() != recount || wx.Census() != recount {
			t.Fatalf("edge %d: census %v (extended) / %v (one-shot), recount of Ts %v", e, fx.Census(), wx.Census(), recount)
		}
		// Freeze allocates every column once at its final length.
		if cap(wx.Ts) != len(wx.Ts) || cap(wx.Traj) != len(wx.Traj) || cap(wx.Seq) != len(wx.Seq) ||
			cap(wx.ISA) != len(wx.ISA) {
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
	bad.Add(0, -1, Record{Traj: traj.ID(ff.NumTrajs())})
	if ext, err := ff.Extend(bad); err == nil || ext != nil {
		t.Fatal("stale batch accepted")
	}
	if ff.NumRecords() != before {
		t.Fatal("failed Extend mutated the frozen forest")
	}
}

// TestCumulativeColumn pins the trajectory-major column: Cum[Start[d]+s] is
// the aggregate Add received for (d, s), Agg and TT read it back, and Start
// frames every trajectory. Extend appends to it, Rewrite shares it, a
// mapped load aliases it and an Extend of the mapped forest detaches it.
func TestCumulativeColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	baseAdds := randomAdds(rng, 0, 6, 700, 0, 400)
	batchAdds := randomAdds(rng, baseAdds[len(baseAdds)-1].r.Traj+1, 6, 300, 1000, 100)
	check := func(what string, ff *FrozenForest, adds []add) {
		t.Helper()
		if ff.Start[0] != 0 || int(ff.Start[len(ff.Start)-1]) != len(ff.Cum) || len(ff.Cum) != len(adds) {
			t.Fatalf("%s: Start %d..%d over %d aggregates, %d records", what, ff.Start[0], ff.Start[len(ff.Start)-1], len(ff.Cum), len(adds))
		}
		if want := int(adds[len(adds)-1].r.Traj) + 1; ff.NumTrajs() != want {
			t.Fatalf("%s: %d trajectories, want %d", what, ff.NumTrajs(), want)
		}
		for _, a := range adds {
			if got := ff.Agg(a.r.Traj, a.r.Seq); got != a.r.A {
				t.Fatalf("%s: Agg(%d, %d) = %d, want %d", what, a.r.Traj, a.r.Seq, got, a.r.A)
			}
			if got := ff.TT(a.r.Traj, a.r.Seq); got != a.r.TT {
				t.Fatalf("%s: TT(%d, %d) = %d, want %d", what, a.r.Traj, a.r.Seq, got, a.r.TT)
			}
		}
	}
	ff := builderOf(6, baseAdds).Freeze()
	check("Freeze", ff, baseAdds)
	all := append(slices.Clone(baseAdds), batchAdds...)
	ext, err := ff.Extend(builderOf(6, batchAdds))
	if err != nil {
		t.Fatal(err)
	}
	check("Extend", ext, all)
	check("Extend's source", ff, baseAdds)
	re := ext.Rewrite(func(_ network.EdgeID, fx *FrozenIndex) *FrozenIndex { return fx })
	if &re.Cum[0] != &ext.Cum[0] || &re.Start[0] != &ext.Start[0] {
		t.Fatal("Rewrite copied the cumulative column")
	}

	more := randomAdds(rng, traj.ID(ext.NumTrajs()), 6, 50, 2000, 10)
	for _, mapped := range []bool{false, true} {
		loaded := snapRoundTrip(t, ext, mapped)
		check("snapshot load", loaded, all)
		again, err := loaded.Extend(builderOf(6, more))
		if err != nil {
			t.Fatal(err)
		}
		check("Extend of a loaded forest", again, append(slices.Clone(all), more...))
		check("loaded forest after its Extend", loaded, all)
		if loaded.mapped != mapped || again.mapped {
			t.Fatalf("mapped=%v: loaded forest mapped=%v, its extension mapped=%v", mapped, loaded.mapped, again.mapped)
		}
		if mapped && &again.Cum[0] == &loaded.Cum[0] {
			t.Fatal("Extend of a mapped forest did not detach its cumulative column")
		}
	}

	// A batch must continue the forest's trajectory ids.
	if _, err := ext.Extend(builderOf(6, randomAdds(rng, 5, 6, 10, 3000, 10))); err == nil {
		t.Fatal("batch with reused trajectory ids accepted")
	}
}

// TestAddRejectsOutOfOrder: Add panics on a record that does not continue
// the trajectory-major order — a skipped sequence number, another
// trajectory's continuation, or a skipped trajectory id.
func TestAddRejectsOutOfOrder(t *testing.T) {
	for name, rs := range map[string][]Record{
		"skipped seq":       {{Traj: 0}, {Traj: 0, Seq: 2}},
		"other trajectory":  {{Traj: 0}, {Traj: 1, Seq: 1}},
		"skipped id":        {{Traj: 0}, {Traj: 2}},
		"continuation only": {{Traj: 0, Seq: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			b := NewForestBuilder(make([]int, 1))
			for _, r := range rs {
				b.Add(0, 0, r)
			}
		}()
	}
}
