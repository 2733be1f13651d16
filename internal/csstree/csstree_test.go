package csstree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := Build[int](nil, nil)
	if tr.Len() != 0 || tr.LowerBound(5) != 0 || tr.CountRange(0, 10) != 0 {
		t.Error("empty tree misbehaves")
	}
	if _, ok := tr.MinKey(); ok {
		t.Error("MinKey on empty")
	}
	if _, ok := tr.MaxKey(); ok {
		t.Error("MaxKey on empty")
	}
}

func TestSmallSorted(t *testing.T) {
	keys := []int64{1, 3, 3, 5, 9}
	vals := []int{10, 30, 31, 50, 90}
	tr := Build(keys, vals)
	cases := []struct {
		key  int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {5, 3}, {6, 4}, {9, 4}, {10, 5},
	}
	for _, c := range cases {
		if got := tr.LowerBound(c.key); got != c.want {
			t.Errorf("LowerBound(%d) = %d, want %d", c.key, got, c.want)
		}
	}
	if got := tr.UpperBound(3); got != 3 {
		t.Errorf("UpperBound(3) = %d, want 3", got)
	}
	if got := tr.CountRange(3, 6); got != 3 {
		t.Errorf("CountRange(3,6) = %d, want 3", got)
	}
	if k, _ := tr.MinKey(); k != 1 {
		t.Error("MinKey")
	}
	if k, _ := tr.MaxKey(); k != 9 {
		t.Error("MaxKey")
	}
	if tr.Key(2) != 3 || tr.Val(2) != 31 {
		t.Error("Key/Val accessor")
	}
}

func TestScans(t *testing.T) {
	var keys []int64
	var vals []int
	for i := 0; i < 5000; i++ {
		keys = append(keys, int64(i/7))
		vals = append(vals, i)
	}
	tr := Build(keys, vals)
	var got []int64
	tr.AscendRange(100, 110, func(k int64, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 70 {
		t.Fatalf("ascend count = %d, want 70", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("ascend not sorted")
		}
	}
	var desc []int64
	tr.DescendRange(100, 110, func(k int64, v int) bool {
		desc = append(desc, k)
		return true
	})
	if len(desc) != 70 {
		t.Fatalf("descend count = %d", len(desc))
	}
	for i := range desc {
		if desc[i] != got[len(got)-1-i] {
			t.Fatal("descend is not the reverse of ascend")
		}
	}
	// Early stop.
	n := 0
	tr.AscendRange(0, 1000, func(int64, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestLowerBoundAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3000)
		keys := make([]int64, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(500))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		tr := Build(keys, vals)
		for q := 0; q < 50; q++ {
			key := int64(rng.Intn(520) - 10)
			want := sort.Search(n, func(i int) bool { return keys[i] >= key })
			if got := tr.LowerBound(key); got != want {
				t.Fatalf("trial %d: LowerBound(%d) = %d, want %d (n=%d)", trial, key, got, want, n)
			}
		}
	}
}

func TestCountRangeQuick(t *testing.T) {
	f := func(raw []uint8, loRaw, spanRaw uint8) bool {
		keys := make([]int64, len(raw))
		vals := make([]int, len(raw))
		for i, b := range raw {
			keys[i] = int64(b)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		tr := Build(keys, vals)
		lo := int64(loRaw)
		hi := lo + int64(spanRaw)
		want := 0
		for _, k := range keys {
			if k >= lo && k < hi {
				want++
			}
		}
		return tr.CountRange(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted Build should panic")
		}
	}()
	Build([]int64{3, 1}, []int{0, 0})
}

func TestSizeBytesSmallerThanBTreeStyle(t *testing.T) {
	var keys []int64
	var vals [][4]int64 // 32-byte payload
	for i := 0; i < 100000; i++ {
		keys = append(keys, int64(i))
		vals = append(vals, [4]int64{})
	}
	tr := Build(keys, vals)
	sz := tr.SizeBytes(32)
	// Pointer-free: close to raw data size (40 B/entry) plus a small
	// directory (< 20% overhead).
	if sz < 100000*40 || sz > 100000*48 {
		t.Errorf("SizeBytes = %d outside plausible range", sz)
	}
}
