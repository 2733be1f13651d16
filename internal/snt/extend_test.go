package snt

import (
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// splitStore divides a store into two stores at the median start time.
func splitStore(s *traj.Store) (*traj.Store, *traj.Store) {
	s.SortByStart()
	a, b := traj.NewStore(), traj.NewStore()
	half := s.Len() / 2
	for i := 0; i < s.Len(); i++ {
		tr := s.Get(traj.ID(i))
		seq := append([]traj.Entry(nil), tr.Seq...)
		if i < half {
			a.Add(tr.User, seq)
		} else {
			b.Add(tr.User, seq)
		}
	}
	return a, b
}

func TestExtendMatchesFullBuild(t *testing.T) {
	g, ids, s := synthStore(t, 20, 15)
	full := Build(g, s, Options{})

	_, _, s2 := synthStore(t, 20, 15)
	first, second := splitStore(s2)
	// Trajectory boundaries may interleave around the midpoint; drop
	// overlap by construction: splitStore splits on sorted order, and
	// synthStore trips never span days, so requiring strictly later
	// start works unless two trips share a timestamp. Shift the batch
	// check by rebuilding only when valid.
	base := Build(g, first, Options{})
	ext, err := base.Extend(second)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if ext.NumPartitions() != 2 {
		t.Fatalf("partitions = %d", ext.NumPartitions())
	}
	// Copy-on-write: the pre-extend snapshot is untouched.
	if base.NumPartitions() != 1 || base.Stats().Trajs != first.Len() {
		t.Fatal("Extend mutated the source snapshot")
	}
	// Extension chains are linear: the superseded snapshot refuses a
	// second extension instead of corrupting shared capacity.
	if _, err := base.Extend(second); err == nil {
		t.Fatal("superseded snapshot accepted a second Extend")
	}

	assertCensus(t, full, "full build")
	assertCensus(t, base, "superseded base")
	assertCensus(t, ext, "extended")
	full.frozen.Each(func(e network.EdgeID, want *temporal.FrozenIndex) {
		if got := ext.frozen.Get(e); got == nil || got.Census() != want.Census() {
			t.Fatalf("segment %d: extended census differs from the full build's", e)
		}
	})

	paths := []network.Path{
		path(ids, "A"), path(ids, "A", "B"), path(ids, "A", "B", "E"),
		path(ids, "A", "C", "D", "E"), path(ids, "C", "D"),
	}
	intervals := []Interval{
		NewFixed(0, 40*DaySeconds),
		PeriodicAround(10*3600, 3600),
	}
	for _, p := range paths {
		for _, iv := range intervals {
			a, _ := full.GetTravelTimes(p, iv, NoFilter, 0)
			b, _ := ext.GetTravelTimes(p, iv, NoFilter, 0)
			if !equalInts(sortedCopy(a), sortedCopy(b)) {
				t.Fatalf("extended index disagrees on %v %v: %d vs %d results",
					p, iv, len(a), len(b))
			}
		}
	}
	// Cardinalities and ToD selectivities agree too.
	for _, p := range paths {
		if full.PathCount(p) != ext.PathCount(p) {
			t.Fatalf("PathCount differs on %v", p)
		}
	}
	sf, okf := todSel(full, ids["A"], NewPeriodic(7*3600, 7200))
	se, oke := todSel(ext, ids["A"], NewPeriodic(7*3600, 7200))
	if okf != oke || (okf && (sf-se > 1e-9 || se-sf > 1e-9)) {
		t.Fatalf("ToD selectivity differs: %v/%v vs %v/%v", sf, okf, se, oke)
	}
}

func TestExtendUserMapping(t *testing.T) {
	g, ids, s := synthStore(t, 10, 10)
	first, second := splitStore(s)
	ix := Build(g, first, Options{})
	nBefore := first.Len()
	ix, err := ix.Extend(second)
	if err != nil {
		t.Fatal(err)
	}
	// New trajectory ids continue the id space with correct users.
	for i := 0; i < second.Len(); i++ {
		want := second.Get(traj.ID(i)).User
		if got := ix.User(traj.ID(nBefore + i)); got != want {
			t.Fatalf("user of extended traj %d = %d, want %d", i, got, want)
		}
	}
	// Self-exclusion works across the boundary.
	tr := second.Get(0)
	p := tr.Path()[:1]
	withSelf, _ := ix.GetTravelTimes(p, NewFixed(0, 1<<60), NoFilter, 0)
	excl := Filter{User: traj.NoUser, ExcludeTraj: traj.ID(nBefore)}
	withoutSelf, _ := ix.GetTravelTimes(p, NewFixed(0, 1<<60), excl, 0)
	if len(withoutSelf) != len(withSelf)-1 {
		t.Fatalf("exclusion across batches: %d vs %d", len(withoutSelf), len(withSelf))
	}
	_ = ids
}

func TestExtendRejectsOverlappingBatch(t *testing.T) {
	g, _, s := synthStore(t, 10, 10)
	first, second := splitStore(s)
	ix := Build(g, second, Options{}) // index the LATER half
	if _, err := ix.Extend(first); err == nil {
		t.Fatal("overlapping (earlier) batch accepted")
	}
	// Failed extends leave the index usable, unchanged, and still
	// extendable (the superseded flag is released on rejection).
	if ix.NumPartitions() != 1 || ix.Stats().Trajs != second.Len() {
		t.Fatal("failed Extend mutated the index")
	}
	if ix.superseded.Load() {
		t.Fatal("rejected Extend left the snapshot superseded")
	}
}

// TestExtendRejectsInvalidBatch: Extend is reachable from untrusted input
// through the serving layer, so malformed batches must be rejected up
// front instead of panicking inside suffix-array construction — and the
// rejection must leave the snapshot extendable.
func TestExtendRejectsInvalidBatch(t *testing.T) {
	g, _, s := synthStore(t, 5, 5)
	ix := Build(g, s, Options{})
	far := int64(1) << 40 // safely after the indexed range

	badEdge := traj.NewStore()
	badEdge.Add(0, []traj.Entry{{Edge: network.EdgeID(g.NumEdges() + 7), T: far, TT: 5}})
	if _, err := ix.Extend(badEdge); err == nil {
		t.Fatal("out-of-range edge id accepted")
	}
	badTT := traj.NewStore()
	badTT.Add(0, []traj.Entry{{Edge: 0, T: far, TT: 0}})
	if _, err := ix.Extend(badTT); err == nil {
		t.Fatal("non-positive TT accepted")
	}
	if ix.superseded.Load() {
		t.Fatal("rejected batch left the snapshot superseded")
	}
}

func TestExtendEmptyBatch(t *testing.T) {
	g, _, s := synthStore(t, 5, 5)
	ix := Build(g, s, Options{})
	same, err := ix.Extend(traj.NewStore())
	if err != nil || same != ix {
		t.Fatalf("empty batch: %v (same snapshot: %v)", err, same == ix)
	}
	if same, err = ix.Extend(nil); err != nil || same != ix {
		t.Fatalf("nil batch: %v (same snapshot: %v)", err, same == ix)
	}
	if ix.NumPartitions() != 1 {
		t.Fatal("empty batch changed partitions")
	}
}

func TestExtendRepeatedBatches(t *testing.T) {
	// Three consecutive batches, queried after each extension.
	g, ids, s := synthStore(t, 30, 8)
	s.SortByStart()
	third := s.Len() / 3
	mk := func(lo, hi int) *traj.Store {
		out := traj.NewStore()
		for i := lo; i < hi; i++ {
			tr := s.Get(traj.ID(i))
			out.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
		}
		return out
	}
	ix := Build(g, mk(0, third), Options{})
	ix, err := ix.Extend(mk(third, 2*third))
	if err != nil {
		t.Fatal(err)
	}
	if ix, err = ix.Extend(mk(2*third, s.Len())); err != nil {
		t.Fatal(err)
	}
	if ix.NumPartitions() != 3 {
		t.Fatalf("partitions = %d", ix.NumPartitions())
	}
	_, _, s3 := synthStore(t, 30, 8)
	full := Build(g, s3, Options{})
	p := path(ids, "A", "B")
	a, _ := full.GetTravelTimes(p, NewFixed(0, 1<<60), NoFilter, 0)
	b, _ := ix.GetTravelTimes(p, NewFixed(0, 1<<60), NoFilter, 0)
	if !equalInts(sortedCopy(a), sortedCopy(b)) {
		t.Fatalf("3-batch index disagrees: %d vs %d", len(a), len(b))
	}
	if ix.Stats().Trajs != s.Len() {
		t.Fatalf("stats.Trajs = %d, want %d", ix.Stats().Trajs, s.Len())
	}
}
