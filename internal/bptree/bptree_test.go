package bptree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Error("Len != 0")
	}
	if _, ok := tr.MinKey(); ok {
		t.Error("MinKey on empty")
	}
	if _, ok := tr.MaxKey(); ok {
		t.Error("MaxKey on empty")
	}
	called := false
	tr.AscendRange(0, 100, func(int64, int) bool { called = true; return true })
	tr.DescendRange(0, 100, func(int64, int) bool { called = true; return true })
	if called {
		t.Error("scan on empty tree called fn")
	}
}

func TestInsertAndScan(t *testing.T) {
	tr := New[string]()
	tr.Insert(5, "a")
	tr.Insert(3, "b")
	tr.Insert(7, "c")
	tr.Insert(5, "d") // duplicate key, insertion order preserved
	tr.Insert(1, "e")
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var keys []int64
	var vals []string
	tr.AscendRange(minInt64, maxInt64, func(k int64, v string) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	wantK := []int64{1, 3, 5, 5, 7}
	wantV := []string{"e", "b", "a", "d", "c"}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("ascend = %v %v", keys, vals)
		}
	}
	if k, _ := tr.MinKey(); k != 1 {
		t.Errorf("MinKey = %d", k)
	}
	if k, _ := tr.MaxKey(); k != 7 {
		t.Errorf("MaxKey = %d", k)
	}
	if c := tr.CountRange(3, 6); c != 3 {
		t.Errorf("CountRange(3,6) = %d, want 3", c)
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), i)
	}
	n := 0
	tr.AscendRange(0, 100, func(int64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("ascend early stop visited %d", n)
	}
	n = 0
	tr.DescendRange(0, 100, func(int64, int) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("descend early stop visited %d", n)
	}
}

// reference model for property tests
type entry struct {
	k int64
	v int
}

func checkAgainstModel(t *testing.T, model []entry, tr *Tree[int], lo, hi int64) {
	t.Helper()
	var want []entry
	for _, e := range model {
		if e.k >= lo && e.k < hi {
			want = append(want, e)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
	var got []entry
	tr.AscendRange(lo, hi, func(k int64, v int) bool {
		got = append(got, entry{k, v})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ascend [%d,%d): got %d entries, want %d", lo, hi, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ascend [%d,%d) mismatch at %d: %v vs %v", lo, hi, i, got[i], want[i])
		}
	}
	// Descend must be the exact reverse (stable within equal keys is not
	// required by the API, so compare keys only).
	var gotDesc []int64
	tr.DescendRange(lo, hi, func(k int64, v int) bool {
		gotDesc = append(gotDesc, k)
		return true
	})
	if len(gotDesc) != len(want) {
		t.Fatalf("descend [%d,%d): got %d entries, want %d", lo, hi, len(gotDesc), len(want))
	}
	for i := range gotDesc {
		if gotDesc[i] != want[len(want)-1-i].k {
			t.Fatalf("descend [%d,%d) key mismatch at %d", lo, hi, i)
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		tr := New[int]()
		var model []entry
		n := 1 + rng.Intn(2000)
		maxKey := int64(1 + rng.Intn(300)) // force duplicates
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(int(maxKey)))
			tr.Insert(k, i)
			model = append(model, entry{k, i})
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 20; q++ {
			lo := int64(rng.Intn(int(maxKey)+10)) - 5
			hi := lo + int64(rng.Intn(int(maxKey)))
			checkAgainstModel(t, model, tr, lo, hi)
		}
		// Full range too.
		checkAgainstModel(t, model, tr, minInt64, maxInt64)
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(keys []int16, loRaw, spanRaw uint8) bool {
		tr := New[int]()
		for i, k := range keys {
			tr.Insert(int64(k), i)
		}
		lo := int64(loRaw) - 128
		hi := lo + int64(spanRaw)
		count := 0
		for _, k := range keys {
			if int64(k) >= lo && int64(k) < hi {
				count++
			}
		}
		return tr.CountRange(lo, hi) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsAndSize(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10000; i++ {
		tr.Insert(int64(i%500), i)
	}
	s := tr.CollectStats()
	if s.Leaves < 10000/maxKeys {
		t.Errorf("too few leaves: %+v", s)
	}
	if s.Inners == 0 {
		t.Errorf("expected inner nodes: %+v", s)
	}
	if tr.SizeBytes(24) <= 10000*8 {
		t.Errorf("SizeBytes = %d implausibly small", tr.SizeBytes(24))
	}
}

func TestDuplicateKeySpanningLeaves(t *testing.T) {
	// Many identical keys force duplicates across leaf splits.
	tr := New[int]()
	for i := 0; i < 500; i++ {
		tr.Insert(42, i)
	}
	tr.Insert(41, -1)
	tr.Insert(43, -2)
	if c := tr.CountRange(42, 43); c != 500 {
		t.Errorf("CountRange(42,43) = %d, want 500", c)
	}
	// Insertion order must be preserved for equal keys.
	prev := -10
	tr.AscendRange(42, 43, func(k int64, v int) bool {
		if v <= prev {
			t.Fatalf("insertion order violated: %d after %d", v, prev)
		}
		prev = v
		return true
	})
	if c := tr.CountRange(43, 100); c != 1 {
		t.Errorf("CountRange(43,100) = %d, want 1", c)
	}
	// Descend excludes hi.
	n := 0
	tr.DescendRange(41, 42, func(k int64, v int) bool {
		if k != 41 {
			t.Fatalf("descend leaked key %d", k)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("descend [41,42) visited %d", n)
	}
}
