package ttserve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The tests here pin the HTTP deadline plumbing: a server-configured or
// per-request query timeout surfaces as a typed 504 JSON error and a
// counter, never as a hung request or a partial 200. Latency-bound
// assertions (deadline ⇒ response within 2× the deadline on a pathological
// query) live in the root package's deadline test, which has a dataset
// large enough for scans to outlive a deadline honestly.

func TestQueryServerTimeout(t *testing.T) {
	eng, ids := testEngine(t)
	// A deadline that has always already expired when the engine looks:
	// the smallest positive duration.
	srv := httptest.NewServer(NewServer(eng, Config{QueryTimeout: time.Nanosecond}))
	defer srv.Close()
	s := srv.Config.Handler.(*Server)

	var e ErrorResponse
	code := getJSON(t, srv.URL+"/query?path="+queryPath(ids), &e)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if !strings.Contains(e.Error, "deadline") {
		t.Fatalf("body %+v, want a deadline error", e)
	}
	if got := s.Counters().QueryTimeouts.Load(); got != 1 {
		t.Fatalf("query_timeouts = %d, want 1", got)
	}
	var st Stats
	getJSON(t, srv.URL+"/statsz", &st)
	if st.QueryTimeouts != 1 {
		t.Fatalf("statsz query_timeouts = %d, want 1", st.QueryTimeouts)
	}
}

func TestQueryPerRequestTimeout(t *testing.T) {
	eng, ids := testEngine(t)
	// Generous server limit; the request lowers it below feasibility.
	srv := httptest.NewServer(NewServer(eng, Config{QueryTimeout: time.Minute}))
	defer srv.Close()

	var e ErrorResponse
	if code := getJSON(t, srv.URL+"/query?path="+queryPath(ids)+"&timeout=1ns", &e); code != http.StatusGatewayTimeout {
		t.Fatalf("lowered timeout: status %d, want 504", code)
	}
	// A request cannot RAISE the server limit: with a 1ns server cap even
	// a 10s request timeout must still expire.
	srv2 := httptest.NewServer(NewServer(eng, Config{QueryTimeout: time.Nanosecond}))
	defer srv2.Close()
	if code := getJSON(t, srv2.URL+"/query?path="+queryPath(ids)+"&timeout=10s", &e); code != http.StatusGatewayTimeout {
		t.Fatalf("capped timeout: status %d, want 504", code)
	}
	// Sanity: the same query with room to breathe answers 200 (bare
	// integers are milliseconds).
	var r Response
	if code := getJSON(t, srv.URL+"/query?path="+queryPath(ids)+"&timeout=30000", &r); code != http.StatusOK {
		t.Fatalf("feasible timeout: status %d, want 200", code)
	}
	// Malformed values are 400s, not silently unbounded.
	for _, bad := range []string{"abc", "-5ms", "0"} {
		if code := getJSON(t, srv.URL+"/query?path="+queryPath(ids)+"&timeout="+bad, &e); code != http.StatusBadRequest {
			t.Fatalf("timeout=%q: status %d, want 400", bad, code)
		}
	}
}

func TestExtendTimeoutSheds(t *testing.T) {
	_, ids, _ := testData()
	seen := refusals{}
	for _, f := range bothFronts(t, Config{
		EnableExtend: true, ExtendTimeout: time.Nanosecond,
	}) {
		resp := postBatch(t, f.url, dayBatch(ids, 7, 1))
		seen.add(t, f.name, resp)
		resp.Body.Close()
		// With no WAL the engine's ExtendCtx sheds at the expired deadline;
		// nothing is acknowledged or applied.
		if resp.StatusCode != http.StatusUnprocessableEntity && resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want a deadline rejection", f.name, resp.StatusCode)
		}
		if got := f.epoch(); got != 0 {
			t.Fatalf("%s: epoch %d after a shed extend, want 0", f.name, got)
		}
	}
	seen.same(t)
}
