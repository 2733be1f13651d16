// The paper's tree layouts as oracle for the frozen columns: these tests
// build internal/treeforest forests from frozen columns and check the two
// against each other. They live here because what they pin is this
// package's layout (order, ties, footprint); treeforest itself
// is a thin dispatch over internal/bptree and internal/csstree, which have
// their own suites.
package temporal_test

import (
	"math/rand"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
	"pathhist/internal/treeforest"
)

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// buildBoth returns segment 1's CSS and B+ tree over the same n records,
// plus the forests that hold them.
func buildBoth(t *testing.T, n int) (css, bt *treeforest.Index, fc, fb *treeforest.Forest) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	b := temporal.NewForestBuilder(make([]int, 2))
	for i := 0; i < n; i++ {
		ts := int64(rng.Intn(100000))
		b.Add(1, ts, temporal.Record{ISA: int32(i), Traj: traj.ID(i), TT: 10, A: 10, Seq: 0})
	}
	ff := b.Freeze()
	fc, fb = treeforest.FromFrozen(ff, treeforest.CSS), treeforest.FromFrozen(ff, treeforest.BPlus)
	return fc.Get(1), fb.Get(1), fc, fb
}

// randomFrozen freezes records over nEdges segments, trajectory by
// trajectory; equal timestamps are common (the tie order is part of the
// frozen contract). It also returns every record as added, by (trajectory,
// seq).
func randomFrozen(rng *rand.Rand, nEdges, nRecs int) (*temporal.FrozenForest, map[[2]int32]temporal.Record) {
	b := temporal.NewForestBuilder(make([]int, nEdges))
	added := make(map[[2]int32]temporal.Record, nRecs)
	d, seq, agg := traj.ID(0), int32(0), int32(0)
	for i := 0; i < nRecs; i++ {
		if seq > 0 && rng.Intn(20) == 0 {
			d, seq, agg = d+1, 0, 0
		}
		e := network.EdgeID(rng.Intn(nEdges))
		t := int64(rng.Intn(nRecs / 2)) // dense keyspace forces duplicates
		tt := int32(1 + rng.Intn(300))
		agg += tt
		r := temporal.Record{ISA: int32(i), Traj: d, TT: tt, A: agg, Seq: seq}
		b.Add(e, t, r)
		added[[2]int32{int32(d), seq}] = r
		seq++
	}
	return b.Freeze(), added
}

func TestKindString(t *testing.T) {
	if treeforest.CSS.String() != "CSS" || treeforest.BPlus.String() != "BT" {
		t.Error("kind names")
	}
}

func TestBothKindsAgree(t *testing.T) {
	css, bt, _, _ := buildBoth(t, 3000)
	if css.Len() != 3000 || bt.Len() != 3000 {
		t.Fatalf("lens: %d %d", css.Len(), bt.Len())
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 100; q++ {
		lo := int64(rng.Intn(100000))
		hi := lo + int64(rng.Intn(20000))
		var ca, ba []int64
		css.Ascend(lo, hi, func(ts int64, r temporal.Record) bool { ca = append(ca, ts); return true })
		bt.Ascend(lo, hi, func(ts int64, r temporal.Record) bool { ba = append(ba, ts); return true })
		if len(ca) != len(ba) {
			t.Fatalf("ascend lengths differ: %d vs %d", len(ca), len(ba))
		}
		for i := range ca {
			if ca[i] != ba[i] {
				t.Fatalf("ascend order differs at %d", i)
			}
		}
		var cd []int64
		css.Descend(lo, hi, func(ts int64, r temporal.Record) bool { cd = append(cd, ts); return true })
		for i := range cd {
			if cd[i] != ca[len(ca)-1-i] {
				t.Fatalf("descend not reverse of ascend at %d", i)
			}
		}
	}
}

func TestForestBasics(t *testing.T) {
	b := temporal.NewForestBuilder(make([]int, 10))
	b.Add(5, 100, temporal.Record{Traj: 0, Seq: 0, TT: 7, A: 7})
	b.Add(9, 60, temporal.Record{Traj: 0, Seq: 1, TT: 4, A: 11})
	b.Add(5, 50, temporal.Record{Traj: 1, Seq: 0, TT: 9, A: 9})
	f := treeforest.FromFrozen(b.Freeze(), treeforest.CSS)
	if f.Get(5).Len() != 2 || f.Get(9).Len() != 1 {
		t.Fatalf("Len(5)=%d Len(9)=%d", f.Get(5).Len(), f.Get(9).Len())
	}
	if f.Get(network.EdgeID(123)) != nil {
		t.Error("missing segment should be nil")
	}
	// Records come back sorted by time.
	var ts []int64
	f.Get(5).Ascend(0, 1000, func(tt int64, r temporal.Record) bool { ts = append(ts, tt); return true })
	if len(ts) != 2 || ts[0] != 50 || ts[1] != 100 {
		t.Fatalf("sorted scan = %v", ts)
	}
	if f.SizeBytes(treeforest.PayloadBytes) <= 0 {
		t.Error("SizeBytes")
	}
}

func TestEarlyStopScan(t *testing.T) {
	css, bt, _, _ := buildBoth(t, 500)
	for i, x := range []*treeforest.Index{css, bt} {
		n := 0
		x.Ascend(0, 1<<40, func(int64, temporal.Record) bool { n++; return n < 3 })
		if n != 3 {
			t.Errorf("%v early stop visited %d", treeforest.Kind(i), n)
		}
	}
}

func TestSizeModelOrdering(t *testing.T) {
	_, _, css, bt := buildBoth(t, 10000)
	// The paper: "the in-memory B+-tree forest has slightly higher memory
	// requirements than the CSS-forest" (Section 6.3).
	c := css.SizeBytes(treeforest.PayloadBytes)
	bb := bt.SizeBytes(treeforest.PayloadBytes)
	if c >= bb {
		t.Errorf("CSS (%d) should be smaller than BT (%d)", c, bb)
	}
	if css.SizeBytes(treeforest.PayloadBytesNoPartition) >= c {
		t.Error("dropping the partition field should shrink the leaves")
	}
}

func TestDescendEmptyRange(t *testing.T) {
	css, bt, _, _ := buildBoth(t, 100)
	for i, x := range []*treeforest.Index{css, bt} {
		n := 0
		x.Descend(50, 50, func(int64, temporal.Record) bool { n++; return true })
		if n != 0 {
			t.Errorf("%v: empty range visited %d", treeforest.Kind(i), n)
		}
	}
}

// TestFreezeMatchesTreeScans: for both tree kinds, the frozen columns hold
// exactly the tree's entries in exactly the tree's ascending scan order
// (including ties), every tree record carries the traversal and aggregate
// times it was added with, and the frozen bounds are consistent on random
// ranges.
func TestFreezeMatchesTreeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []treeforest.Kind{treeforest.CSS, treeforest.BPlus} {
		ff, added := randomFrozen(rng, 7, 4000)
		f := treeforest.FromFrozen(ff, kind)
		ff.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
			x := f.Get(e)
			if x == nil || x.Len() != fx.Len() {
				t.Fatalf("%v edge %d: length mismatch", kind, e)
			}
			// Full ascending enumeration must match the columns pairwise.
			i := 0
			x.Ascend(minInt64, maxInt64, func(ts int64, r temporal.Record) bool {
				if fx.Ts[i] != ts || fx.Traj[i] != r.Traj || fx.Seq[i] != r.Seq ||
					fx.ISA[i] != r.ISA || added[[2]int32{int32(r.Traj), r.Seq}] != r {
					t.Fatalf("%v edge %d offset %d: column mismatch", kind, e, i)
				}
				i++
				return true
			})
			if i != fx.Len() {
				t.Fatalf("%v edge %d: enumerated %d of %d", kind, e, i, fx.Len())
			}
			for trial := 0; trial < 50; trial++ {
				lo := int64(rng.Intn(2200)) - 100
				hi := lo + int64(rng.Intn(500))
				want := 0
				x.Ascend(lo, hi, func(int64, temporal.Record) bool { want++; return true })
				if got := fx.CountRange(lo, hi); got != want {
					t.Fatalf("%v edge %d: CountRange(%d,%d) = %d, want %d", kind, e, lo, hi, got, want)
				}
				if got := fx.LowerBound(lo); got < fx.Len() && fx.Ts[got] < lo ||
					got > 0 && fx.Ts[got-1] >= lo {
					t.Fatalf("%v edge %d: LowerBound(%d) = %d", kind, e, lo, got)
				}
			}
		})
	}
}

// TestFrozenSmallerThanTrees asserts the memory claim the frozen layout
// exists for: the columnar footprint undercuts the B+-tree layout (per-node
// headers, child pointers, slack capacity) and does not exceed the CSS
// layout it mirrors.
func TestFrozenSmallerThanTrees(t *testing.T) {
	ff, _ := randomFrozen(rand.New(rand.NewSource(9)), 4, 6000)
	frozen := ff.SizeBytes()
	if tree := treeforest.FromFrozen(ff, treeforest.BPlus).SizeBytes(treeforest.PayloadBytes); frozen >= tree {
		t.Fatalf("frozen %d B not smaller than B+-tree model %d B", frozen, tree)
	}
	if tree := treeforest.FromFrozen(ff, treeforest.CSS).SizeBytes(treeforest.PayloadBytes); frozen > tree {
		t.Fatalf("frozen %d B larger than CSS model %d B", frozen, tree)
	}
}
