package main

import (
	"testing"

	"pathhist/internal/workload"
)

// pinnedInputs are the FNV-1a hashes of everything each workload sends —
// warm-up, request sequence, batch bodies, probes — for the small dataset at
// seed 42 and a 1 s run. A change here means the benchmark no longer asks
// the questions its recorded baselines answered.
var pinnedInputs = map[string]uint64{
	"route_cold":   0xc57ac6cc7ccc4c81,
	"route_hot":    0xbb929905f3bf72ee,
	"ingest_mixed": 0xb905c1ae3d273e0a,
	"sharded_cold": 0xc57ac6cc7ccc4c81,
}

func smallInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	ds := workload.BuildDataset(datasetConfig(true))
	served, batches, err := cutDataset(name, ds.Store, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(name, served, edgeLogLoad(ds), batches, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b, other := smallInputs(t, name, 42), smallInputs(t, name, 42), smallInputs(t, name, 43)
		if a.hash() != b.hash() {
			t.Errorf("%s: the same seed gave different inputs: %016x, %016x", name, a.hash(), b.hash())
		}
		if a.hash() == other.hash() {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", name)
		}
		if want := pinnedInputs[name]; a.hash() != want {
			t.Errorf("%s: inputs hash %#016x, pinned %#016x", name, a.hash(), want)
		}
	}
	if cold, shard := smallInputs(t, "route_cold", 42), smallInputs(t, "sharded_cold", 42); cold.hash() != shard.hash() {
		t.Errorf("sharded_cold does not ask route_cold's questions")
	}
}

func TestColdRequestsAreDistinct(t *testing.T) {
	in := smallInputs(t, "route_cold", 42)
	seen := map[string]bool{}
	for _, r := range append(append([]request(nil), in.warm...), in.pool...) {
		if seen[r.url] {
			t.Fatalf("request repeated: %s", r.url)
		}
		seen[r.url] = true
	}
	for i, pi := range in.order {
		if int(pi) != i {
			t.Fatalf("order[%d] = %d: the cold sequence must visit each request once", i, pi)
		}
	}
}

// TestRequestsAreStratified: every block of strata consecutive draws holds
// each half hour of the day once, and no request's histogram can overflow.
func TestRequestsAreStratified(t *testing.T) {
	ds := workload.BuildDataset(datasetConfig(true))
	load := edgeLogLoad(ds)
	g := newGenerator(streamRNG(42, "cold"), ds.Store, load)
	for block := 0; block < 4; block++ {
		seen := map[int64]bool{}
		for i := 0; i < strata; i++ {
			r := g.next()
			seen[r.q.Around/(86400/strata)] = true
			if len(r.q.Path) < minSegments {
				t.Fatalf("path of %d segments", len(r.q.Path))
			}
			mass := 0.0
			for _, e := range r.q.Path {
				mass += load[e]
			}
			if mass > maxLogMass {
				t.Fatalf("request with worst-case mass 1e%.0f: %s", mass, r.url)
			}
		}
		if g.skipped == 0 && len(seen) != strata {
			t.Errorf("block %d covers %d of %d times of day", block, len(seen), strata)
		}
	}
}

func TestIngestBatchesFollowTheBase(t *testing.T) {
	ds := workload.BuildDataset(datasetConfig(true))
	base, batches, err := cutDataset("ingest_mixed", ds.Store, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := base.Len()
	for _, b := range batches {
		total += b.trajs
	}
	if total != ds.Store.Len() {
		t.Errorf("base and batches hold %d trajectories, the dataset %d", total, ds.Store.Len())
	}
	if len(batches) < 2 {
		t.Errorf("only %d batches cut from the small dataset", len(batches))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python says 3.5, 31.0", q1, q3)
	}
}
