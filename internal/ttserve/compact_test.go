package ttserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pathhist"
)

// extendBatches posts n strictly-newer one-trajectory batches.
func extendBatches(t *testing.T, url string, ids map[string]pathhist.EdgeID, n int) {
	t.Helper()
	day := int64(86400)
	for b := 0; b < n; b++ {
		at := day * int64(b+1)
		batch := pathhist.NewStore()
		batch.Add(pathhist.UserID(b%3), []pathhist.Entry{
			{Edge: ids["A"], T: at, TT: 4},
			{Edge: ids["B"], T: at + 4, TT: 5},
			{Edge: ids["E"], T: at + 9, TT: 4},
		})
		resp := postBatch(t, url, batch)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("extend %d status = %d", b, resp.StatusCode)
		}
	}
}

// TestCompactEndpoint drives ingest fragmentation and manual compaction end
// to end over HTTP: many small /extend batches pile up partitions, POST
// /compact merges them, query answers stay identical, and /statsz reports
// the compaction.
func TestCompactEndpoint(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{EnableExtend: true}))
	defer srv.Close()

	extendBatches(t, srv.URL, ids, 6)
	queryURL := fmt.Sprintf("%s/query?path=%d,%d,%d&beta=2&until=%d",
		srv.URL, ids["A"], ids["B"], ids["E"], int64(1)<<40)
	before, err := fetch(queryURL)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status = %d", resp.StatusCode)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.PartitionsBefore != 7 || cr.PartitionsAfter != 1 || cr.Runs != 1 {
		t.Fatalf("compact response = %+v", cr)
	}
	if cr.Epoch != 7 { // 6 ingest epochs + 1 compaction epoch
		t.Fatalf("epoch after compaction = %d", cr.Epoch)
	}

	after, err := fetch(queryURL)
	if err != nil {
		t.Fatal(err)
	}
	if after.MeanSeconds != before.MeanSeconds || len(after.Histogram) != len(before.Histogram) {
		t.Fatalf("compaction changed answers: %+v vs %+v", after, before)
	}
	if after.Epoch != 7 {
		t.Fatalf("post-compaction query epoch = %d", after.Epoch)
	}

	sresp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 1 || st.Compactions != 1 || st.LastCompactionMerged != 6 || st.LastCompactUnix == 0 {
		t.Fatalf("statsz after compaction = %+v", st)
	}
	if st.Index == "" || st.Epoch != 7 {
		t.Fatalf("statsz index summary missing: %+v", st)
	}

	// GET is rejected; a second POST is an idempotent no-op.
	rejectsGET(t, "/compact", Config{EnableExtend: true})
	resp2, err := http.Post(srv.URL+"/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var cr2 CompactResponse
	if err := json.NewDecoder(resp2.Body).Decode(&cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.PartitionsBefore != 1 || cr2.PartitionsAfter != 1 || cr2.Epoch != 7 {
		t.Fatalf("idempotent compact response = %+v", cr2)
	}
}

// TestCompactDisabledWithoutExtend: the maintenance endpoint only exists on
// deployments that opted into mutation.
func TestCompactDisabledWithoutExtend(t *testing.T) {
	eng, _ := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/compact on read-only deployment: status = %d", resp.StatusCode)
	}
}

// TestExtendAdmissionTrajectoryBudget: a batch above the configured
// trajectory budget is rejected with 413 and a JSON error before the engine
// sees it, and the rejection is counted separately from malformed bodies.
func TestExtendAdmissionTrajectoryBudget(t *testing.T) {
	_, ids, _ := testData()
	seen := refusals{}
	for _, f := range bothFronts(t, Config{
		EnableExtend:          true,
		MaxExtendTrajectories: 2,
	}) {
		day := int64(86400)
		big := pathhist.NewStore()
		for k := 0; k < 3; k++ {
			big.Add(pathhist.UserID(k), []pathhist.Entry{{Edge: ids["A"], T: day + int64(k)*100, TT: 5}})
		}
		epochBefore := f.epoch()
		resp := postBatch(t, f.url, big)
		seen.add(t, f.name, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized batch status = %d, want 413", f.name, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: rejection content type = %q", f.name, ct)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Fatalf("%s: rejection body not a JSON error: %v %+v", f.name, err, er)
		}
		resp.Body.Close()
		if f.epoch() != epochBefore || f.trajectories() != 4 {
			t.Fatalf("%s: rejected batch reached the engine", f.name)
		}

		// A batch within the budget still lands.
		ok := pathhist.NewStore()
		ok.Add(9, []pathhist.Entry{{Edge: ids["A"], T: 2 * day, TT: 5}})
		resp2 := postBatch(t, f.url, ok)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: in-budget batch status = %d", f.name, resp2.StatusCode)
		}

		var st Stats
		getJSON(t, f.url+"/statsz", &st)
		if st.ExtendOverloadRejects != 1 || st.ExtendRejects != 0 || st.Extends != 1 {
			t.Fatalf("%s: admission counters = %+v", f.name, st)
		}
	}
	seen.same(t)
}

// TestExtendAdmissionByteBudget: a body above MaxExtendBytes is rejected
// with 413 + JSON, not the generic 400 of a malformed body.
func TestExtendAdmissionByteBudget(t *testing.T) {
	_, ids, _ := testData()
	seen := refusals{}
	for _, f := range bothFronts(t, Config{
		EnableExtend:   true,
		MaxExtendBytes: 64, // far below any serialised batch
	}) {
		batch := pathhist.NewStore()
		for k := 0; k < 16; k++ {
			batch.Add(pathhist.UserID(k), []pathhist.Entry{{Edge: ids["A"], T: 86400 + int64(k)*60, TT: 5}})
		}
		resp := postBatch(t, f.url, batch)
		seen.add(t, f.name, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status = %d, want 413", f.name, resp.StatusCode)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Fatalf("%s: rejection body not a JSON error: %v %+v", f.name, err, er)
		}
		resp.Body.Close()
		if f.epoch() != 0 {
			t.Fatalf("%s: oversized body reached the engine", f.name)
		}
	}
	seen.same(t)
}
