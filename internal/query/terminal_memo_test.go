package query

import (
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// nightQueries builds an index over part of SmallConfig's dataset, the batch
// that extends it, and trip queries at 3 am with a β the night cannot
// meet, so most sub-queries relax to the terminal [0, tmax] fallback.
func nightQueries(t testing.TB) (*snt.Index, *traj.Store, []SPQ) {
	t.Helper()
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	var qs []SPQ
	for _, q := range ds.MakeQueries(0.02, 4, cfg.Seed+7) {
		day := q.T0 - q.T0%snt.DaySeconds
		qs = append(qs, SPQ{Path: q.Path, Interval: snt.PeriodicAround(day+3*3600, DefaultAlphas[0]), Filter: snt.NoFilter, Beta: 40})
	}
	base, batch, ok := splitQuiescent(ds.Store, 0.8)
	if !ok || len(qs) == 0 {
		t.Fatal("dataset has no quiescent cut or no queries")
	}
	return snt.Build(ds.G, base, snt.Options{}), batch, qs
}

// isTerminal reports whether an accepted sub-query is one the memo answers:
// the whole-range fallback over one segment with data.
func isTerminal(s *SubResult) bool {
	return len(s.Path) == 1 && !s.Interval.IsPeriodic() && !s.Fallback && s.Filter.ExcludeTraj < 0
}

// TestEngineTerminalMemo checks the engine's use of the terminal-fallback
// memo: with the cache on, answers equal the cache-off engine's bit for
// bit; a terminal answered a second time is a cache hit; the engine's cache
// stats move by exactly the hits and misses the results book; the attempt
// count is unchanged; and all of it still holds after Extend, against the
// cache-off engine over the extended index.
func TestEngineTerminalMemo(t *testing.T) {
	ix, batch, qs := nightQueries(t)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10, DisableFullResultCache: true})
	defer eng.Close()
	check := func(label string, warm bool) {
		t.Helper()
		ref := NewEngine(eng.Index(), Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10, DisableCache: true, DisableFullResultCache: true})
		defer ref.Close()
		terminals := 0
		for i, q := range qs {
			before := eng.Cache()
			got, want := eng.TripQuery(q), ref.TripQuery(q)
			if err := sameResult(&got, &want); err != nil {
				t.Fatalf("%s query %d: %v", label, i, err)
			}
			if a, b := got.IndexScans+got.CacheHits, want.IndexScans; a != b {
				t.Fatalf("%s query %d: %d attempts with the memo, %d without", label, i, a, b)
			}
			after := eng.Cache()
			if after.Hits-before.Hits != int64(got.CacheHits) || after.Misses-before.Misses != int64(got.CacheMisses) {
				t.Fatalf("%s query %d: cache stats moved by %d hits, %d misses for %d, %d booked", label, i,
					after.Hits-before.Hits, after.Misses-before.Misses, got.CacheHits, got.CacheMisses)
			}
			n := 0
			for j := range got.Subs {
				if isTerminal(&got.Subs[j]) {
					n++
				}
			}
			if warm && got.CacheHits < n {
				t.Fatalf("%s query %d: %d cache hits for %d terminal subs", label, i, got.CacheHits, n)
			}
			terminals += n
		}
		if terminals == 0 {
			t.Fatalf("%s: no query reached the terminal fallback", label)
		}
	}
	check("cold", false)
	check("warm", true)
	if _, err := eng.Extend(batch); err != nil {
		t.Fatal(err)
	}
	check("extended", false)
	check("extended warm", true)
}

// BenchmarkTerminalAttempt is one engine attempt at the terminal
// [0, tmax] rung, cycling over every segment with data, with the cache on:
// after the first pass every attempt is a memoised answer.
func BenchmarkTerminalAttempt(b *testing.B) {
	ix, _, _ := nightQueries(b)
	eng := NewEngine(ix, Config{Partitioner: Partitioner{Kind: ZoneKind}, BucketWidth: 10})
	defer eng.Close()
	_, tmax := ix.TimeRange()
	var qs []SPQ
	for e := network.EdgeID(0); int(e) < ix.Graph().NumEdges(); e++ {
		if ix.Frozen().Get(e) != nil {
			qs = append(qs, SPQ{Path: network.Path{e}, Interval: snt.NewFixed(0, tmax+1), Filter: snt.NoFilter})
		}
	}
	sn := eng.snap.Load()
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if o := eng.attempt(sn, qs[i%len(qs)], sc); o.N == 0 {
			b.Fatal("terminal attempt failed")
		}
		i++
	}
}
