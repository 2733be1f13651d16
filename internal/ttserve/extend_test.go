package ttserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathhist"
)

// postBatch serialises a store and POSTs it to /extend.
func postBatch(t *testing.T, url string, batch *pathhist.Store) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if _, err := batch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/extend", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestExtendEndpoint drives the live-ingestion path end to end over HTTP:
// a batch in the traj binary format is ingested, the epoch advances, and a
// repeated query reflects the new samples without a server restart.
func TestExtendEndpoint(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{EnableExtend: true}))
	defer srv.Close()

	queryURL := fmt.Sprintf("%s/query?path=%d,%d,%d&beta=10&until=%d",
		srv.URL, ids["A"], ids["B"], ids["E"], int64(1)<<40)
	before, err := fetch(queryURL)
	if err != nil {
		t.Fatal(err)
	}
	if before.Epoch != 0 {
		t.Fatalf("pre-extend epoch = %d", before.Epoch)
	}

	day := int64(86400)
	batch := pathhist.NewStore()
	batch.Add(3, []pathhist.Entry{
		{Edge: ids["A"], T: day, TT: 5},
		{Edge: ids["B"], T: day + 5, TT: 5},
		{Edge: ids["E"], T: day + 10, TT: 5},
	})
	resp := postBatch(t, srv.URL, batch)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend status = %d", resp.StatusCode)
	}
	var er ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Trajectories != 1 || er.Epoch != 1 || er.Total != 5 {
		t.Fatalf("extend response = %+v", er)
	}

	after, err := fetch(queryURL)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != 1 || after.FullCacheHit {
		t.Fatalf("post-extend response: epoch %d, fullCacheHit %v", after.Epoch, after.FullCacheHit)
	}
	if want := before.SubQueries[0].Samples + 1; after.SubQueries[0].Samples != want {
		t.Fatalf("post-extend samples = %d, want %d", after.SubQueries[0].Samples, want)
	}

	// /statsz surfaces the ingest counters and the new epoch.
	sresp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.ExtendEnabled || st.Extends != 1 || st.ExtendTrajectories != 1 ||
		st.Epoch != 1 || st.Partitions != 2 || st.Trajectories != 5 || st.LastExtendUnix == 0 {
		t.Fatalf("stats after extend = %+v", st)
	}
	// The epoch publication swept both caches eagerly; the purge counters
	// surface through /statsz (lazy invalidations only remain for queries
	// racing the publication on a pinned snapshot).
	if st.CachePurges == 0 || st.FullCachePurges == 0 {
		t.Fatalf("no cache purges surfaced after extend: %+v", st)
	}
}

// TestExtendEndpointErrors covers the rejection paths: wrong method, bad
// body, overlapping batch — and that a rejected batch changes nothing.
func TestExtendEndpointErrors(t *testing.T) {
	_, ids, _ := testData()
	seen := refusals{}
	for _, f := range bothFronts(t, Config{EnableExtend: true}) {
		if resp, err := http.Get(f.url + "/extend"); err != nil {
			t.Fatal(err)
		} else {
			seen.add(t, f.name, resp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s: GET /extend status = %d", f.name, resp.StatusCode)
			}
		}
		resp, err := http.Post(f.url+"/extend", "application/octet-stream",
			strings.NewReader("not a traj store"))
		if err != nil {
			t.Fatal(err)
		}
		seen.add(t, f.name, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: garbage body status = %d", f.name, resp.StatusCode)
		}

		// A batch inside the indexed time range is a semantic rejection: 422.
		overlap := pathhist.NewStore()
		overlap.Add(1, []pathhist.Entry{{Edge: ids["A"], T: 1, TT: 2}})
		resp = postBatch(t, f.url, overlap)
		seen.add(t, f.name, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: overlapping batch status = %d", f.name, resp.StatusCode)
		}

		var st Stats
		getJSON(t, f.url+"/statsz", &st)
		if st.Epoch != 0 || st.Extends != 0 || st.ExtendRejects != 2 {
			t.Fatalf("%s: stats after rejects = %+v", f.name, st)
		}
	}
	seen.same(t)
}

// TestExtendDisabledByDefault: without Config.EnableExtend the endpoint
// does not exist.
func TestExtendDisabledByDefault(t *testing.T) {
	eng, _ := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/extend", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /extend status = %d", resp.StatusCode)
	}
}

// TestExtendWhileServingConcurrently hammers /query from several goroutines
// while batches arrive through /extend (run under -race in CI): the HTTP
// layer statement of the non-blocking ingestion contract.
func TestExtendWhileServingConcurrently(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{EnableExtend: true}))
	defer srv.Close()

	urls := []string{
		fmt.Sprintf("%s/query?path=%d,%d,%d&beta=10&until=%d", srv.URL, ids["A"], ids["B"], ids["E"], int64(1)<<40),
		fmt.Sprintf("%s/query?path=%d&beta=5&until=%d", srv.URL, ids["A"], int64(1)<<40),
		fmt.Sprintf("%s/query?path=%d&tod=00:00&window=900&beta=1", srv.URL, ids["B"]),
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := fetch(urls[(i+g)%len(urls)]); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	day := int64(86400)
	for b := 1; b <= 4; b++ {
		batch := pathhist.NewStore()
		at := int64(b) * day
		batch.Add(pathhist.UserID(b), []pathhist.Entry{
			{Edge: ids["A"], T: at, TT: 3 + int32(b)},
			{Edge: ids["B"], T: at + 5, TT: 4},
			{Edge: ids["E"], T: at + 10, TT: 4},
		})
		resp := postBatch(t, srv.URL, batch)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			close(done)
			wg.Wait()
			t.Fatalf("batch %d status = %d", b, resp.StatusCode)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final, err := fetch(urls[0])
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 4 || final.SubQueries[0].Samples != 2+4 {
		t.Fatalf("final response: epoch %d, samples %d, want 4 and 6",
			final.Epoch, final.SubQueries[0].Samples)
	}
}
