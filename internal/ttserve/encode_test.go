package ttserve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pathhist"
	"pathhist/internal/failpoint"
	"pathhist/internal/network"
)

// overflowFronts serves one dataset from both fronts: a straight road of n
// segments that 32 trajectories drive end to end, partitioned per segment.
// A whole-road query convolves n histograms of 32 samples each, so its mass
// is 32^n — +Inf in float64 once n passes 204, and every bucket fraction
// Inf/Inf = NaN, which json cannot represent.
func overflowFronts(t *testing.T, n int) map[string]http.Handler {
	t.Helper()
	g := pathhist.NewGraph()
	prev := g.AddVertex(0, 0)
	for i := 1; i <= n; i++ {
		next := g.AddVertex(float64(100*i), 0)
		g.AddEdge(network.Edge{From: prev, To: next, SpeedLimit: 50})
		prev = next
	}
	store := pathhist.NewStore()
	for k := 0; k < 32; k++ {
		entries := make([]pathhist.Entry, n)
		at := int64(k * 10000)
		for i := range entries {
			tt := int32(8 + (k+i)%5)
			entries[i] = pathhist.Entry{Edge: pathhist.EdgeID(i), T: at, TT: tt}
			at += int64(tt)
		}
		store.Add(pathhist.UserID(k%4), entries)
	}
	opts := pathhist.Options{Partition: pathhist.EverySegment}
	eng, err := pathhist.NewEngine(g, store.Slice(0, store.Len()), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	cluster, engines := buildCluster(t, g, store.Slice(0, store.Len()), 2, opts)
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		shards[i] = NewShard(eng, Config{})
	}
	front, err := NewShardedServer(cluster, shards, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]http.Handler{"single": NewServer(eng, Config{}), "sharded": front}
}

// TestUnencodableAnswerIs500 pins the fail-closed encode of the shared
// /query handler on both fronts: an answer json cannot represent is a 500
// with a JSON reason and a counted failure — never a 200 with zero bytes —
// while an encodable answer from the same server is an ordinary 200.
func TestUnencodableAnswerIs500(t *testing.T) {
	const segments = 210
	fronts := overflowFronts(t, segments)
	road := make([]string, segments)
	for i := range road {
		road[i] = shardedPathParam(pathhist.Path{pathhist.EdgeID(i)})
	}
	for name, h := range fronts {
		srv := httptest.NewServer(h)
		for _, tc := range []struct {
			what   string
			path   string
			status int
		}{
			{"finite mass", strings.Join(road[:3], ","), http.StatusOK},
			{"+Inf mass, NaN fractions", strings.Join(road, ","), http.StatusInternalServerError},
		} {
			resp, err := http.Get(srv.URL + "/query?beta=32&path=" + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("%s, %s: status %d, want %d (body %.200q)", name, tc.what, resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s, %s: Content-Type %q", name, tc.what, ct)
			}
			if tc.status == http.StatusOK {
				var r Response
				if err := json.Unmarshal(body, &r); err != nil || len(r.Histogram) == 0 {
					t.Fatalf("%s, %s: body %.200q: %v", name, tc.what, body, err)
				}
				continue
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "encoding the answer") {
				t.Fatalf("%s, %s: body %.200q: %v", name, tc.what, body, err)
			}
		}
		var st struct {
			EncodeFailures int64 `json:"encode_failures"`
			Counters       struct {
				EncodeFailures int64 `json:"encode_failures"`
			} `json:"counters"`
		}
		getJSON(t, srv.URL+"/statsz", &st)
		if got := st.EncodeFailures + st.Counters.EncodeFailures; got != 1 {
			t.Errorf("%s: /statsz encode_failures = %d, want 1", name, got)
		}
		srv.Close()
	}
}

// TestShardedFrontPanicIsolation: the sharded front runs the same handler
// body, so the /query failpoint fires there too and a panic is one 500.
func TestShardedFrontPanicIsolation(t *testing.T) {
	defer failpoint.Reset()
	fronts := overflowFronts(t, 3)
	srv := httptest.NewServer(fronts["sharded"])
	defer srv.Close()
	failpoint.Enable(FailpointQueryPanic, failpoint.Injection{Panic: "injected bug"})
	var e ErrorResponse
	if code := getJSON(t, srv.URL+"/query?path=0,1,2", &e); code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Fatalf("panicking query body: %+v", e)
	}
	failpoint.Reset()
	if got := fronts["sharded"].(*ShardedServer).Counters().PanicsRecovered.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	var r ShardedResponse
	if code := getJSON(t, srv.URL+"/query?path=0,1,2", &r); code != http.StatusOK {
		t.Fatalf("query after panic: status %d", code)
	}
}
