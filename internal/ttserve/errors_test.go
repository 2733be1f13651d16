package ttserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"pathhist"
)

// TestErrorBodiesAreJSON is the error-contract audit: every 4xx/5xx the
// serving endpoints (/query, /extend, /compact, /snapshot) produce carries
// Content-Type application/json and a decodable {"error": "..."} body, so
// clients never have to sniff between JSON and text/plain.
func TestErrorBodiesAreJSON(t *testing.T) {
	_, ids, _ := testData()
	fronts := bothFronts(t, Config{
		EnableExtend: true, SnapshotDir: t.TempDir(), MaxExtendTrajectories: 1,
	})
	draining := bothFronts(t, Config{EnableExtend: true, SnapshotDir: t.TempDir()})
	for _, f := range draining {
		f.beginDrain()
	}

	// An oversized batch for the trajectory-budget rejection.
	bigBatch := pathhist.NewStore()
	for d := int64(1); d <= 2; d++ {
		day := d * 86400
		bigBatch.Add(7, []pathhist.Entry{{Edge: ids["A"], T: day, TT: 5}})
	}
	var big bytes.Buffer
	if _, err := bigBatch.WriteTo(&big); err != nil {
		t.Fatal(err)
	}
	// A batch Extend itself refuses: it overlaps the indexed time range.
	overlapping := pathhist.NewStore()
	overlapping.Add(7, []pathhist.Entry{{Edge: ids["A"], T: 0, TT: 5}})
	var overlap bytes.Buffer
	if _, err := overlapping.WriteTo(&overlap); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		drain  bool // ask the draining fronts
		method string
		url    string
		body   []byte
		want   int
	}{
		{"query missing path", false, "GET", "/query", nil, 400},
		{"query bad edge", false, "GET", "/query?path=abc", nil, 400},
		{"query bad timeout", false, "GET", fmt.Sprintf("/query?path=%d&timeout=bogus", ids["A"]), nil, 400},
		{"query untraversable", false, "GET", fmt.Sprintf("/query?path=%d,%d", ids["A"], ids["D"]), nil, 422},
		{"query draining", true, "GET", fmt.Sprintf("/query?path=%d", ids["A"]), nil, 503},
		{"extend wrong method", false, "GET", "/extend", nil, 405},
		{"extend garbage body", false, "POST", "/extend", []byte("not a batch"), 400},
		{"extend over trajectory budget", false, "POST", "/extend", big.Bytes(), 413},
		{"extend engine rejects", false, "POST", "/extend", overlap.Bytes(), 422},
		{"extend draining", true, "POST", "/extend", overlap.Bytes(), 503},
		{"compact wrong method", false, "GET", "/compact", nil, 405},
		{"compact draining", true, "POST", "/compact", nil, 503},
		{"snapshot wrong method", false, "GET", "/snapshot", nil, 405},
		{"snapshot draining", true, "POST", "/snapshot", nil, 503},
	}
	seen := refusals{}
	for i, f := range fronts {
		for _, c := range cases {
			base := f.url
			if c.drain {
				base = draining[i].url
			}
			req, err := http.NewRequest(c.method, base+c.url, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s, %s: status %d, want %d (body %q)", f.name, c.name, resp.StatusCode, c.want, raw)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("%s, %s: Content-Type %q, want application/json (body %q)", f.name, c.name, ct, raw)
				continue
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Errorf("%s, %s: body %q not an {\"error\": ...} document (err %v)", f.name, c.name, raw, err)
				continue
			}
			resp.Body = io.NopCloser(bytes.NewReader(raw))
			seen.add(t, f.name, resp)
		}
	}
	seen.same(t)
}
