package ttserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestStatsz checks the observability endpoint shape and that cache
// counters move under query traffic.
func TestStatsz(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()

	queryURL := fmt.Sprintf("%s/query?path=%d,%d,%d&tod=00:00&window=40&beta=2",
		srv.URL, ids["A"], ids["B"], ids["E"])
	for i := 0; i < 3; i++ {
		resp, err := http.Get(queryURL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Partitions < 1 || st.IndexBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Repeated identical queries are served whole from the full-result
	// cache; the first run reached the index on its way.
	if st.FullCacheHits == 0 || st.FullCacheEntries == 0 || st.FullCacheHitRatio <= 0 {
		t.Fatalf("repeated identical queries produced no full-result cache hits: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("first query booked no index scan: %+v", st)
	}
}

// TestStatszCacheCountersMatchResponses: /statsz cache_hits and
// cache_misses are the sums of the per-response cache_hits and
// cache_misses over the answered queries. The mix has rungs the
// time-of-day census rejects (no record at noon), each a miss in its
// response; terminal answers the memo fills and then reuses across
// queries; and a full-result cache repeat, which books neither.
func TestStatszCacheCountersMatchResponses(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()

	urls := []string{
		fmt.Sprintf("%s/query?path=%d,%d,%d&tod=12:00&window=900&beta=2", srv.URL, ids["A"], ids["B"], ids["E"]),
		fmt.Sprintf("%s/query?path=%d,%d&tod=12:00&window=900&beta=2", srv.URL, ids["A"], ids["B"]),
		fmt.Sprintf("%s/query?path=%d,%d,%d&tod=00:00&window=40&beta=2", srv.URL, ids["A"], ids["B"], ids["E"]),
		fmt.Sprintf("%s/query?path=%d,%d&beta=1", srv.URL, ids["A"], ids["B"]),
		fmt.Sprintf("%s/query?path=%d,%d&tod=12:00&window=900&beta=2", srv.URL, ids["A"], ids["B"]),
	}
	var hits, misses int64
	for _, u := range urls {
		r, err := fetch(u)
		if err != nil {
			t.Fatal(err)
		}
		hits += int64(r.CacheHits)
		misses += int64(r.CacheMisses)
	}
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("the mix booked %d hits and %d misses: it must book both", hits, misses)
	}
	if st.CacheHits != hits || st.CacheMisses != misses {
		t.Fatalf("/statsz cache_hits %d cache_misses %d, responses sum to %d and %d",
			st.CacheHits, st.CacheMisses, hits, misses)
	}
}

// TestConcurrentRequests drives the handler from many goroutines (run
// under -race in CI) and checks all answers for one query agree — the
// service-level consequence of the engine's concurrency safety.
func TestConcurrentRequests(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()

	urls := []string{
		fmt.Sprintf("%s/query?path=%d,%d,%d&tod=00:00&window=40&beta=2", srv.URL, ids["A"], ids["B"], ids["E"]),
		fmt.Sprintf("%s/query?path=%d,%d&beta=1", srv.URL, ids["A"], ids["B"]),
		fmt.Sprintf("%s/query?path=%d&user=1&tod=00:00&window=60&beta=1", srv.URL, ids["A"]),
	}
	want := make([]Response, len(urls))
	for i, u := range urls {
		r, err := fetch(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (i + g) % len(urls)
				got, err := fetch(urls[j])
				if err != nil {
					errs <- err
					return
				}
				if got.MeanSeconds != want[j].MeanSeconds ||
					got.P50 != want[j].P50 ||
					len(got.SubQueries) != len(want[j].SubQueries) {
					errs <- fmt.Errorf("url %d: answer drifted: %+v vs %+v", j, got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func fetch(url string) (Response, error) {
	var out Response
	resp, err := http.Get(url)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}
