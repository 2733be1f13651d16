package ttserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pathhist"
)

// bodyWriter is a ResponseWriter that keeps the status and the body and
// reuses one header map, so allocations counted around ServeHTTP are the
// handler's own.
type bodyWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *bodyWriter) Header() http.Header { return w.h }

func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *bodyWriter) WriteHeader(code int) { w.status = code }

// fullCacheHitFixture serves the longest trajectory's path of the sharded
// tests' dataset from a single-engine Server and asks it once, so every
// later identical request is a full-result cache hit. It returns the
// handler, the request and the writer to answer it into.
func fullCacheHitFixture(t testing.TB) (http.Handler, *http.Request, *bodyWriter) {
	t.Helper()
	ds := shardedDataset(t)
	var path pathhist.Path
	for i := 0; i < ds.Store.Len(); i++ {
		if p := ds.Store.Get(pathhist.TrajID(i)).Path(); len(p) > len(path) {
			path = pathhist.Path(p)
		}
	}
	eng, err := pathhist.NewEngine(ds.G, ds.Store, pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := NewServer(eng, Config{})
	req := httptest.NewRequest(http.MethodGet, "/query?path="+shardedPathParam(path)+"&tod=08:15&window=1800&beta=10", nil)
	w := &bodyWriter{h: http.Header{}}
	srv.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		t.Fatalf("first answer: status %d: %s", w.status, w.body.String())
	}
	return srv, req, w
}

// TestQueryFullCacheHitAllocs holds the allocation budget of a /query
// answered whole from the full-result cache, handler entry to written body:
// one parse of the query string, exactly sized response slices and a pooled
// encode buffer. Measured at 21 allocations (3.6 KB) for a 2.5 KB body with
// Go 1.24 on linux/amd64, against 76 (11.0 KB) when the query string was
// parsed once per parameter and the slices and buffer grew by appending;
// the budget leaves a little room for the standard library. A -race build
// runs the test but does not hold the budget (raceEnabled).
func TestQueryFullCacheHitAllocs(t *testing.T) {
	const budget = 24
	srv, req, w := fullCacheHitFixture(t)
	w.body.Reset()
	srv.ServeHTTP(w, req)
	hitBody := append([]byte(nil), w.body.Bytes()...)
	var hit Response
	if err := json.Unmarshal(hitBody, &hit); err != nil || !hit.FullCacheHit || len(hit.SubQueries) < 2 || len(hit.Histogram) == 0 {
		t.Fatalf("repeat is not a multi-sub full-cache hit (%v): %s", err, hitBody)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.body.Reset()
		srv.ServeHTTP(w, req)
	})
	t.Logf("full-cache hit: %.0f allocations for a %d-byte body", allocs, len(hitBody))
	if allocs > budget && !raceEnabled {
		t.Errorf("full-cache hit allocates %.0f times, budget %d", allocs, budget)
	}
	// Pooled encode buffers carry nothing from one request into the next.
	if !bytes.Equal(w.body.Bytes(), hitBody) {
		t.Fatalf("the last hit answers differently from the first:\n%s\n%s", w.body.Bytes(), hitBody)
	}
}

// BenchmarkQueryFullCacheHit reports B/op and allocs/op of a /query served
// whole from the full-result cache.
func BenchmarkQueryFullCacheHit(b *testing.B) {
	srv, req, w := fullCacheHitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		srv.ServeHTTP(w, req)
	}
}
