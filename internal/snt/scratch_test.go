package snt

import (
	"math/rand"
	"testing"
)

// TestScratchTableBasic exercises insert/lookup including negative
// sequence numbers (join looks up seq+1-l, which can be negative).
func TestScratchTableBasic(t *testing.T) {
	var sc Scratch
	sc.resetTable(4)
	if _, ok := sc.lookup(packKey(1, 2)); ok {
		t.Fatal("lookup on empty table hit")
	}
	if !sc.insert(packKey(1, 2), 42) {
		t.Fatal("first insert not new")
	}
	if sc.insert(packKey(1, 2), 43) {
		t.Fatal("overwrite reported as new")
	}
	if v, ok := sc.lookup(packKey(1, 2)); !ok || v != 43 {
		t.Fatalf("lookup = %d, %v", v, ok)
	}
	if _, ok := sc.lookup(packKey(2, 1)); ok {
		t.Fatal("swapped key hit")
	}
	if _, ok := sc.lookup(packKey(1, -2)); ok {
		t.Fatal("negative seq hit without insert")
	}
	if sc.n != 1 {
		t.Fatalf("n = %d", sc.n)
	}
	// (d=0, seq=0) packs to key 0, which must be storable.
	sc.insert(packKey(0, 0), 7)
	if v, ok := sc.lookup(packKey(0, 0)); !ok || v != 7 {
		t.Fatalf("zero key lookup = %d, %v", v, ok)
	}
}

// TestScratchTableAgainstMap drives the open-addressing table with random
// keys (forcing growth past the initial size) and cross-checks a Go map.
func TestScratchTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	sc.resetTable(0)
	ref := map[uint64]int32{}
	for i := 0; i < 5000; i++ {
		d := int32(rng.Intn(800))
		seq := int32(rng.Intn(60)) - 30
		v := int32(rng.Intn(1 << 20))
		k := packKey(d, seq)
		wantNew := func() bool { _, ok := ref[k]; return !ok }()
		if gotNew := sc.insert(k, v); gotNew != wantNew {
			t.Fatalf("insert %d: new = %v, want %v", i, gotNew, wantNew)
		}
		ref[k] = v
	}
	if sc.n != len(ref) {
		t.Fatalf("n = %d, want %d", sc.n, len(ref))
	}
	for k, v := range ref {
		if got, ok := sc.lookup(k); !ok || got != v {
			t.Fatalf("lookup %x = %d, %v; want %d", k, got, ok, v)
		}
	}
	for i := 0; i < 1000; i++ {
		k := packKey(int32(rng.Intn(2000)), int32(rng.Intn(120))-60)
		v, ok := sc.lookup(k)
		rv, rok := ref[k]
		if ok != rok || (ok && v != rv) {
			t.Fatalf("lookup %x = %d, %v; want %d, %v", k, v, ok, rv, rok)
		}
	}
	// Reset must empty the table while keeping capacity.
	sc.resetTable(8)
	if sc.n != 0 {
		t.Fatalf("n after reset = %d", sc.n)
	}
	for k := range ref {
		if _, ok := sc.lookup(k); ok {
			t.Fatalf("stale key %x after reset", k)
		}
		break
	}
}

// TestGetTravelTimesWithMatchesAllocating checks that the scratch-based
// path and the allocating wrapper agree, and that scratch reuse across
// differently-shaped scans does not leak state between calls.
func TestGetTravelTimesWithMatchesAllocating(t *testing.T) {
	ix, ids := buildPaperIndex(t, Options{})
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	paths := [][]string{{"A", "B", "E"}, {"A"}, {"F"}, {"A", "C", "D", "E"}, {"B", "E"}}
	ivs := []Interval{NewFixed(0, 20), NewPeriodic(0, 900), NewFixed(3, 9)}
	for _, names := range paths {
		p := path(ids, names...)
		for _, iv := range ivs {
			for _, beta := range []int{0, 1, 2, 5} {
				want, wantFb := ix.GetTravelTimes(p, iv, NoFilter, beta)
				got, gotFb := ix.GetTravelTimesWith(sc, p, iv, NoFilter, beta)
				if wantFb != gotFb || len(want) != len(got) {
					t.Fatalf("%v %v β=%d: %v/%v vs %v/%v", names, iv, beta, want, wantFb, got, gotFb)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v %v β=%d: sample %d: %d vs %d", names, iv, beta, i, want[i], got[i])
					}
				}
				if n := ix.CountMatches(p, iv, NoFilter, 0); n != ix.CountMatchesWith(sc, p, iv, NoFilter, 0) {
					t.Fatalf("%v %v: CountMatches disagreement (%d)", names, iv, n)
				}
			}
		}
	}
}
