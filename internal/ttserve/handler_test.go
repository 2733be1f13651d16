package ttserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pathhist"
)

// testOptions configure every engine over the testData dataset.
var testOptions = pathhist.Options{Partition: pathhist.NoPartition, BucketSeconds: 1}

// testData is the paper's example network with four trajectories on it.
func testData() (*pathhist.Graph, map[string]pathhist.EdgeID, *pathhist.Store) {
	g, ids := pathhist.PaperExampleNetwork()
	s := pathhist.NewStore()
	e := func(name string, at int64, tt int32) pathhist.Entry {
		return pathhist.Entry{Edge: ids[name], T: at, TT: tt}
	}
	s.Add(1, []pathhist.Entry{e("A", 0, 3), e("B", 3, 4), e("E", 7, 4)})
	s.Add(2, []pathhist.Entry{e("A", 2, 4), e("C", 6, 2), e("D", 8, 4), e("E", 12, 5)})
	s.Add(2, []pathhist.Entry{e("A", 4, 3), e("B", 7, 3), e("F", 10, 6)})
	s.Add(1, []pathhist.Entry{e("A", 6, 3), e("B", 9, 3), e("E", 12, 4)})
	return g, ids, s
}

func testEngine(t *testing.T) (*pathhist.Engine, map[string]pathhist.EdgeID) {
	t.Helper()
	g, ids, s := testData()
	eng, err := pathhist.NewEngine(g, s, testOptions)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ids
}

// testFront is one of the two fronts over the testData dataset, for tables
// that take the front as one more input.
type testFront struct {
	name       string
	url        string
	beginDrain func()
	// epoch and trajectories are summed over the front's shards.
	epoch        func() uint64
	trajectories func() int
}

// bothFronts serves testData from a 1-shard Server and from a 2-shard
// ShardedServer configured alike (each shard snapshots to its own directory
// when cfg names one).
func bothFronts(t *testing.T, cfg Config) []testFront {
	t.Helper()
	eng, _ := testEngine(t)
	t.Cleanup(eng.Close)
	single := NewServer(eng, cfg)

	g, _, store := testData()
	cluster, engines := buildCluster(t, g, store, 2, testOptions)
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		sc := cfg
		if cfg.SnapshotDir != "" {
			sc.SnapshotDir = t.TempDir()
		}
		shards[i] = NewShard(eng, sc)
	}
	front, err := NewShardedServer(cluster, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	return []testFront{
		{"single", serve(single), single.BeginDrain, eng.Epoch, eng.Trajectories},
		{"sharded", serve(front), front.BeginDrain, func() (sum uint64) {
			for _, st := range cluster.Status() {
				sum += st.Epoch
			}
			return sum
		}, cluster.Trajectories},
	}
}

// refusals records, per front, what each refused request looked like, so a
// table run on both fronts can require that the core they share refused
// identically.
type refusals map[string][]string

// add notes resp — status, Allow, whether a Retry-After hint is present and
// the JSON error body — and leaves the body readable. A 422's wording is the
// engine's or the router's own, so only its presence is noted.
func (r refusals) add(t *testing.T, front string, resp *http.Response) {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("%s: refusal body %q is not an {\"error\": ...} document (%v)", front, raw, err)
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		e.Error = "(front's own reason)"
	}
	r[front] = append(r[front], fmt.Sprintf("%d Allow=%q Retry-After=%v %s",
		resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Retry-After") != "", e.Error))
}

// same requires every front to have refused the same way, request by
// request.
func (r refusals) same(t *testing.T) {
	t.Helper()
	if !reflect.DeepEqual(r["single"], r["sharded"]) {
		t.Fatalf("the fronts refused differently:\nsingle  %q\nsharded %q", r["single"], r["sharded"])
	}
}

// rejectsGET pins a mutating endpoint's method gate on both fronts: 405,
// Allow: POST and the same JSON error.
func rejectsGET(t *testing.T, path string, cfg Config) {
	t.Helper()
	seen := refusals{}
	for _, f := range bothFronts(t, cfg) {
		resp, err := http.Get(f.url + path)
		if err != nil {
			t.Fatal(err)
		}
		seen.add(t, f.name, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Fatalf("%s: GET %s status = %d, Allow %q", f.name, path, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
	seen.same(t)
}

func TestHealthz(t *testing.T) {
	eng, _ := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	url := fmt.Sprintf("%s/query?path=%d,%d,%d&beta=2", srv.URL, ids["A"], ids["B"], ids["E"])
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Fixed interval over all data: both full-path matches (10 and 11 s).
	if math.Abs(out.MeanSeconds-10.5) > 1e-9 {
		t.Errorf("mean = %v, want 10.5", out.MeanSeconds)
	}
	if len(out.SubQueries) != 1 || out.SubQueries[0].Samples != 2 {
		t.Errorf("subs = %+v", out.SubQueries)
	}
	var totalFrac float64
	for _, b := range out.Histogram {
		totalFrac += b.Fraction
	}
	if math.Abs(totalFrac-1) > 1e-9 {
		t.Errorf("histogram fractions sum to %v", totalFrac)
	}
	if out.IndexScans < 1 {
		t.Error("index scans missing")
	}
}

func TestQueryEndpointUserAndTod(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	url := fmt.Sprintf("%s/query?path=%d&tod=00:00&window=900&beta=1&user=2", srv.URL, ids["A"])
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.MeanSeconds <= 0 {
		t.Errorf("mean = %v", out.MeanSeconds)
	}
}

// TestToResponseEmptyHistogram is the regression test for the NaN bug: a
// nil or zero-mass histogram must not divide by its total (Fraction NaN
// breaks json.Encoder AFTER the 200 header, truncating the body) nor call
// Quantile/Min on a zero-value histogram (division by a zero bucket
// width). The response must flag emptiness and stay encodable.
func TestToResponseEmptyHistogram(t *testing.T) {
	for name, res := range map[string]*pathhist.Result{
		"nil":      {Histogram: nil, MeanSeconds: 12},
		"zeroMass": {Histogram: &pathhist.Histogram{}, MeanSeconds: 12},
	} {
		out := toResponse(res)
		if !out.Empty || len(out.Histogram) != 0 {
			t.Fatalf("%s: response = %+v, want empty flag and no buckets", name, out)
		}
		if out.P05 != 0 || out.P50 != 0 || out.P95 != 0 {
			t.Fatalf("%s: quantiles of an empty histogram = %+v", name, out)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatalf("%s: response not encodable: %v", name, err)
		}
		var back Response
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
	}
}

// TestQueryEndpointFromUntil: fixed intervals are expressible over HTTP.
func TestQueryEndpointFromUntil(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	// [0, 6) covers only trajectory 0's A-B-E start (entry at t=0); the
	// other full-path match enters A at t=6 and is excluded.
	url := fmt.Sprintf("%s/query?path=%d,%d,%d&from=0&until=6&beta=5", srv.URL, ids["A"], ids["B"], ids["E"])
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.SubQueries) != 1 || out.SubQueries[0].Samples != 1 {
		t.Fatalf("subs = %+v, want exactly the t=0 traversal", out.SubQueries)
	}
	if math.Abs(out.MeanSeconds-11) > 1e-9 {
		t.Errorf("mean = %v, want 11", out.MeanSeconds)
	}
	// A wider interval picks up the second full-path match.
	wide, err := fetch(fmt.Sprintf("%s/query?path=%d,%d,%d&from=0&until=100&beta=5",
		srv.URL, ids["A"], ids["B"], ids["E"]))
	if err != nil {
		t.Fatal(err)
	}
	if wide.SubQueries[0].Samples != 2 {
		t.Fatalf("wide subs = %+v", wide.SubQueries)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	eng, ids := testEngine(t)
	srv := httptest.NewServer(NewServer(eng, Config{}))
	defer srv.Close()
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"missing path", "/query", http.StatusBadRequest},
		{"bad edge", "/query?path=abc", http.StatusBadRequest},
		{"negative edge", "/query?path=-3", http.StatusBadRequest},
		// Beyond int32: must not wrap around onto a valid id.
		{"edge out of range", fmt.Sprintf("/query?path=%d", int64(ids["A"])+1<<32), http.StatusBadRequest},
		{"bad tod", fmt.Sprintf("/query?path=%d&tod=25:99", ids["A"]), http.StatusBadRequest},
		{"bad tod format", fmt.Sprintf("/query?path=%d&tod=8am", ids["A"]), http.StatusBadRequest},
		{"bad window", fmt.Sprintf("/query?path=%d&window=-5", ids["A"]), http.StatusBadRequest},
		{"window without tod", fmt.Sprintf("/query?path=%d&window=900", ids["A"]), http.StatusBadRequest},
		{"bad beta", fmt.Sprintf("/query?path=%d&beta=x", ids["A"]), http.StatusBadRequest},
		{"bad user", fmt.Sprintf("/query?path=%d&user=-2", ids["A"]), http.StatusBadRequest},
		{"user out of range", fmt.Sprintf("/query?path=%d&user=4294967301", ids["A"]), http.StatusBadRequest},
		{"bad from", fmt.Sprintf("/query?path=%d&from=x", ids["A"]), http.StatusBadRequest},
		{"bad until", fmt.Sprintf("/query?path=%d&until=-4", ids["A"]), http.StatusBadRequest},
		{"until before from", fmt.Sprintf("/query?path=%d&from=100&until=50", ids["A"]), http.StatusBadRequest},
		{"until equals from", fmt.Sprintf("/query?path=%d&from=100&until=100", ids["A"]), http.StatusBadRequest},
		{"tod with from", fmt.Sprintf("/query?path=%d&tod=08:00&from=0", ids["A"]), http.StatusBadRequest},
		{"tod with until", fmt.Sprintf("/query?path=%d&tod=08:00&until=50", ids["A"]), http.StatusBadRequest},
		// <A, D> is not traversable: semantic error, 422.
		{"untraversable", fmt.Sprintf("/query?path=%d,%d", ids["A"], ids["D"]), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}
