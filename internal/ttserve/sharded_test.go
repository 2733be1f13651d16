package ttserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"pathhist"
	"pathhist/internal/failpoint"
	"pathhist/internal/sharded"
	"pathhist/internal/workload"
)

func shardedDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Net.Cities = 3
	cfg.Net.GridSize = 5
	cfg.Drivers = 12
	cfg.Days = 20
	cfg.TargetTrips = 300
	return workload.BuildDataset(cfg)
}

// buildCluster builds an n-shard cluster the way cmd/ttserve does: one
// engine per stripe (sharded.Stripes) under sharded.ShardOptions, adopted
// by sharded.New. It sorts store by start time and returns the engines in
// shard order; the cluster closes them at cleanup.
func buildCluster(t testing.TB, g *pathhist.Graph, store *pathhist.Store, n int, opts pathhist.Options) (*sharded.Cluster, []*pathhist.Engine) {
	t.Helper()
	stripes := sharded.Stripes(store, n)
	engines := make([]*pathhist.Engine, len(stripes))
	for i, st := range stripes {
		eng, err := pathhist.NewEngine(g, st, sharded.ShardOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	cluster, err := sharded.New(g, engines, sharded.Config{Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, engines
}

// shardedFixture is a scatter-gather front over n shards plus an unsharded
// control server over the same (deep-copied) store, both on test listeners.
type shardedFixture struct {
	ds       *workload.Dataset
	front    *ShardedServer
	frontURL string
	single   string // control server URL
}

func newShardedFixture(t *testing.T, n int, cfg Config) *shardedFixture {
	t.Helper()
	ds := shardedDataset(t)
	ds.Store.SortByStart()
	cluster, engines := buildCluster(t, ds.G, ds.Store.Slice(0, ds.Store.Len()), n, pathhist.Options{})
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		shards[i] = NewShard(eng, Config{EnableExtend: cfg.EnableExtend})
	}
	front, err := NewShardedServer(cluster, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(front)
	t.Cleanup(fsrv.Close)

	eng, err := pathhist.NewEngine(ds.G, ds.Store.Slice(0, ds.Store.Len()), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ssrv := httptest.NewServer(NewServer(eng, Config{EnableExtend: cfg.EnableExtend}))
	t.Cleanup(ssrv.Close)
	return &shardedFixture{ds: ds, front: front, frontURL: fsrv.URL, single: ssrv.URL}
}

func shardedPathParam(p pathhist.Path) string {
	out := ""
	for i, e := range p {
		if i > 0 {
			out += ","
		}
		out += strconv.Itoa(int(e))
	}
	return out
}

// queryURLs is a deterministic differential mix: sub-paths of real
// trajectories, fixed full-range and periodic intervals, varying β, a user
// filter.
func (f *shardedFixture) queryURLs() []string {
	var urls []string
	for i := 0; i < 12; i++ {
		tr := f.ds.Store.Get(pathhist.TrajID((i * 37) % f.ds.Store.Len()))
		tp := tr.Path()
		plen := 1 + i%4
		if plen > len(tp) {
			plen = len(tp)
		}
		param := shardedPathParam(pathhist.Path(tp[:plen]))
		switch i % 3 {
		case 0:
			urls = append(urls, fmt.Sprintf("/query?path=%s&beta=5", param))
		case 1:
			urls = append(urls, fmt.Sprintf("/query?path=%s", param))
		default:
			urls = append(urls, fmt.Sprintf("/query?path=%s&tod=08:15&window=1800&beta=10", param))
		}
	}
	first := f.ds.Store.Get(0)
	urls = append(urls, fmt.Sprintf("/query?path=%s&user=3&beta=8", shardedPathParam(pathhist.Path(first.Path()[:1]))))
	return urls
}

func shardedGetJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestShardedFrontBitIdentity: with every shard healthy, the front's JSON
// answers — mean, quantiles, sub-queries, histogram — are identical to the
// unsharded server's over the same data, for every query shape the /query
// surface accepts, and never flagged partial.
func TestShardedFrontBitIdentity(t *testing.T) {
	for _, n := range []int{1, 3} {
		f := newShardedFixture(t, n, Config{})
		for _, q := range f.queryURLs() {
			var got ShardedResponse
			var want Response
			if code := shardedGetJSON(t, f.frontURL+q, &got); code != http.StatusOK {
				t.Fatalf("shards=%d %s: front status %d", n, q, code)
			}
			if code := shardedGetJSON(t, f.single+q, &want); code != http.StatusOK {
				t.Fatalf("shards=%d %s: control status %d", n, q, code)
			}
			if got.Partial || len(got.MissingShards) != 0 {
				t.Fatalf("shards=%d %s: healthy cluster answered partial: %+v", n, q, got)
			}
			if math.Abs(got.MeanSeconds-want.MeanSeconds) > 1e-9 ||
				got.P05 != want.P05 || got.P50 != want.P50 || got.P95 != want.P95 ||
				got.Empty != want.Empty {
				t.Fatalf("shards=%d %s:\nfront   %+v\ncontrol %+v", n, q, got.Response, want)
			}
			if len(got.SubQueries) != len(want.SubQueries) {
				t.Fatalf("shards=%d %s: %d sub-queries vs %d", n, q, len(got.SubQueries), len(want.SubQueries))
			}
			for i := range got.SubQueries {
				gs, ws := got.SubQueries[i], want.SubQueries[i]
				if gs.Segments != ws.Segments || gs.Samples != ws.Samples || gs.Fallback != ws.Fallback ||
					math.Abs(gs.MeanTT-ws.MeanTT) > 1e-9 {
					t.Fatalf("shards=%d %s sub %d: %+v vs %+v", n, q, i, gs, ws)
				}
			}
			if len(got.Histogram) != len(want.Histogram) {
				t.Fatalf("shards=%d %s: %d buckets vs %d", n, q, len(got.Histogram), len(want.Histogram))
			}
			for i := range got.Histogram {
				if got.Histogram[i] != want.Histogram[i] {
					t.Fatalf("shards=%d %s bucket %d: %+v vs %+v", n, q, i, got.Histogram[i], want.Histogram[i])
				}
			}
		}
	}
}

// meanFields is the part of a /query body the mean is read from, kept as
// the JSON text each front wrote.
type meanFields struct {
	MeanSeconds json.RawMessage `json:"mean_seconds"`
	SubQueries  []struct {
		Samples json.RawMessage `json:"samples"`
		MeanTT  json.RawMessage `json:"mean_seconds"`
	} `json:"sub_queries"`
}

// TestShardedFrontSampleCountsAndMeans: the router gathers single-segment
// samples in the reverse of the unsharded scan's order; a sub-result keeps
// only their count, exact sum and histogram, so the "samples" and
// "mean_seconds" fields both fronts write must be the same text, for the
// periodic, fixed, user-filtered and terminal sub-queries of single-segment
// questions and for the longer paths of the differential mix.
func TestShardedFrontSampleCountsAndMeans(t *testing.T) {
	for _, n := range []int{1, 3} {
		f := newShardedFixture(t, n, Config{})
		urls := f.queryURLs()
		for i := 0; i < 20; i++ {
			tr := f.ds.Store.Get(pathhist.TrajID((i * 29) % f.ds.Store.Len()))
			seg := shardedPathParam(pathhist.Path(tr.Path()[:1]))
			urls = append(urls,
				fmt.Sprintf("/query?path=%s", seg),
				fmt.Sprintf("/query?path=%s&tod=%02d:%02d&beta=%d", seg, (6+i)%24, (i*7)%60, 1+i%12),
				fmt.Sprintf("/query?path=%s&user=%d&beta=3", seg, i%12),
			)
		}
		subs := 0
		for _, q := range urls {
			var got, want meanFields
			if code := shardedGetJSON(t, f.frontURL+q, &got); code != http.StatusOK {
				t.Fatalf("shards=%d %s: front status %d", n, q, code)
			}
			if code := shardedGetJSON(t, f.single+q, &want); code != http.StatusOK {
				t.Fatalf("shards=%d %s: control status %d", n, q, code)
			}
			if !bytes.Equal(got.MeanSeconds, want.MeanSeconds) || len(got.SubQueries) != len(want.SubQueries) {
				t.Fatalf("shards=%d %s: mean %s with %d subs, control %s with %d", n, q,
					got.MeanSeconds, len(got.SubQueries), want.MeanSeconds, len(want.SubQueries))
			}
			for i, gs := range got.SubQueries {
				ws := want.SubQueries[i]
				if !bytes.Equal(gs.Samples, ws.Samples) || !bytes.Equal(gs.MeanTT, ws.MeanTT) {
					t.Fatalf("shards=%d %s sub %d: samples %s mean %s, control samples %s mean %s",
						n, q, i, gs.Samples, gs.MeanTT, ws.Samples, ws.MeanTT)
				}
				subs++
			}
		}
		if subs < len(urls) {
			t.Fatalf("shards=%d: only %d sub-queries compared", n, subs)
		}
	}
}

// TestShardedFrontExtend: a batch POSTed to the front routes whole to one
// shard, the cluster total advances, and the extended data answers queries
// identically to an unsharded server that ingested the same batch.
func TestShardedFrontExtend(t *testing.T) {
	ds := shardedDataset(t)
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) == 0 {
		t.Skip("no quiescent cuts in the dataset")
	}
	cut := cuts[len(cuts)/2]
	base, batch := ds.Store.Slice(0, cut), ds.Store.Slice(cut, ds.Store.Len())

	cluster, engines := buildCluster(t, ds.G, base.Slice(0, base.Len()), 4, pathhist.Options{})
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		shards[i] = NewShard(eng, Config{EnableExtend: true})
	}
	front, err := NewShardedServer(cluster, shards, Config{EnableExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(front)
	defer fsrv.Close()

	eng, err := pathhist.NewEngine(ds.G, base.Slice(0, base.Len()), pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Extend(batch.Slice(0, batch.Len())); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := batch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fsrv.URL+"/extend", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ext ShardedExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ext); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend status = %d", resp.StatusCode)
	}
	if ext.Shard < 0 || ext.Shard >= 4 || ext.ClusterTotal != ds.Store.Len() {
		t.Fatalf("extend response: %+v (want cluster total %d)", ext, ds.Store.Len())
	}

	// The batch is booked where it was applied: the ingesting shard's
	// counters are non-zero and the shards sum to the front's totals.
	var st ShardedStats
	if code := shardedGetJSON(t, fsrv.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if got := st.ShardStats[ext.Shard]; got.Extends != 1 || got.ExtendTrajectories != int64(batch.Len()) || got.LastExtendUnix == 0 {
		t.Fatalf("shard %d ingest counters: extends %d, extend_trajectories %d, last_extend_unix %d; want 1, %d, non-zero",
			ext.Shard, got.Extends, got.ExtendTrajectories, got.LastExtendUnix, batch.Len())
	}
	var extends, extendTrajs int64
	for _, ss := range st.ShardStats {
		extends += ss.Extends
		extendTrajs += ss.ExtendTrajectories
	}
	if st.Extends != 1 || extends != st.Extends || extendTrajs != st.ExtendTrajectories || st.LastExtendUnix == 0 {
		t.Fatalf("front totals extends %d / extend_trajectories %d, shards sum to %d / %d",
			st.Extends, st.ExtendTrajectories, extends, extendTrajs)
	}

	// The batch's own edges now answer through the merged scan, exactly as
	// the unsharded engine that ingested the same batch answers.
	qp := pathhist.Path(batch.Get(0).Path()[:1])
	q := pathhist.Query{Path: qp, Beta: 50}
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got ShardedResponse
	url := fmt.Sprintf("%s/query?path=%s&beta=50", fsrv.URL, shardedPathParam(qp))
	if code := shardedGetJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("post-extend query status %d", code)
	}
	if got.Partial || math.Abs(got.MeanSeconds-want.MeanSeconds) > 1e-9 ||
		len(got.SubQueries) != len(want.Subs) || got.SubQueries[0].Samples != want.Subs[0].Samples {
		t.Fatalf("post-extend divergence: front %+v vs engine mean %v subs %+v", got, want.MeanSeconds, want.Subs)
	}
}

// TestShardedFrontPartialDegradation: with one shard fault-injected down,
// /query still answers 200 from the survivors with the partial flag and the
// missing shard listed; with too many shards down it sheds 503 with a
// Retry-After hint instead of lying.
func TestShardedFrontPartialDegradation(t *testing.T) {
	f := newShardedFixture(t, 4, Config{})
	boom := errors.New("injected shard fault")
	site := failpoint.ShardDown + ".2"
	failpoint.Enable(site, failpoint.Injection{Err: boom})
	defer failpoint.Disable(site)

	q := f.queryURLs()[0]
	var got ShardedResponse
	if code := shardedGetJSON(t, f.frontURL+q, &got); code != http.StatusOK {
		t.Fatalf("one-shard-down query status %d", code)
	}
	if !got.Partial || len(got.MissingShards) != 1 || got.MissingShards[0] != 2 {
		t.Fatalf("one-shard-down response: partial=%v missing=%v", got.Partial, got.MissingShards)
	}
	var frac float64
	for _, b := range got.Histogram {
		frac += b.Fraction
	}
	if !got.Empty && math.Abs(frac-1) > 1e-9 {
		t.Fatalf("partial histogram fractions sum to %v", frac)
	}
	var st ShardedStats
	if code := shardedGetJSON(t, f.frontURL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if st.Counters.PartialResponses < 1 || st.Shards != 4 {
		t.Fatalf("statsz after partial answer: %+v", st.Counters)
	}

	// Take three of four down: coverage falls below the 0.5 floor.
	for _, k := range []string{".0", ".1"} {
		failpoint.Enable(failpoint.ShardDown+k, failpoint.Injection{Err: boom})
		defer failpoint.Disable(failpoint.ShardDown + k)
	}
	resp, err := http.Get(f.frontURL + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("below-coverage query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("below-coverage 503 without Retry-After")
	}
}

// TestShardedFrontPartialEpoch: /query reports the epochs its answer read.
// After a batch lands on shard 2 alone, a full answer counts that epoch; a
// partial answer without shard 2 must not.
func TestShardedFrontPartialEpoch(t *testing.T) {
	ds := shardedDataset(t)
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) == 0 {
		t.Skip("no quiescent cuts in the dataset")
	}
	cut := cuts[len(cuts)/2]
	base, batch := ds.Store.Slice(0, cut), ds.Store.Slice(cut, ds.Store.Len())
	cluster, engines := buildCluster(t, ds.G, base, 4, pathhist.Options{})
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		shards[i] = NewShard(eng, Config{EnableExtend: true})
	}
	front, err := NewShardedServer(cluster, shards, Config{EnableExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(front)
	defer fsrv.Close()

	// Latch every other shard out of the ingest rotation so the batch lands
	// on shard 2, then release them.
	for _, i := range []int{0, 1, 3} {
		cluster.SetDegraded(i, true)
	}
	var buf bytes.Buffer
	if _, err := batch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fsrv.URL+"/extend", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ext ShardedExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ext); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ext.Shard != 2 || ext.Epoch != 1 {
		t.Fatalf("extend: status %d, shard %d, epoch %d; want 200 on shard 2 at epoch 1", resp.StatusCode, ext.Shard, ext.Epoch)
	}
	for _, i := range []int{0, 1, 3} {
		cluster.SetDegraded(i, false)
	}

	url := fmt.Sprintf("%s/query?path=%s&beta=50", fsrv.URL, shardedPathParam(pathhist.Path(batch.Get(0).Path()[:1])))
	var full ShardedResponse
	if code := shardedGetJSON(t, url, &full); code != http.StatusOK || full.Partial || full.Epoch != 1 {
		t.Fatalf("full answer: status %d, partial %v, epoch %d; want 200, complete, epoch 1", code, full.Partial, full.Epoch)
	}

	site := failpoint.ShardDown + ".2"
	failpoint.Enable(site, failpoint.Injection{Err: errors.New("injected shard fault")})
	defer failpoint.Disable(site)
	var partial ShardedResponse
	if code := shardedGetJSON(t, url, &partial); code != http.StatusOK {
		t.Fatalf("one-shard-down query status %d", code)
	}
	if !partial.Partial || len(partial.MissingShards) != 1 || partial.MissingShards[0] != 2 {
		t.Fatalf("one-shard-down response: partial=%v missing=%v", partial.Partial, partial.MissingShards)
	}
	if partial.Epoch != 0 {
		t.Fatalf("partial answer without shard 2 reports epoch %d, want 0", partial.Epoch)
	}
}

// TestShardedFrontDegradedIngestReroutes: a shard already latched degraded
// at construction never receives a batch — every extend routes to the
// healthy shard.
func TestShardedFrontDegradedIngestReroutes(t *testing.T) {
	ds := shardedDataset(t)
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) < 3 {
		t.Skipf("only %d quiescent cuts", len(cuts))
	}
	base := ds.Store.Slice(0, cuts[len(cuts)-3])
	b1 := ds.Store.Slice(cuts[len(cuts)-3], cuts[len(cuts)-2])
	b2 := ds.Store.Slice(cuts[len(cuts)-2], ds.Store.Len())

	cluster, engines := buildCluster(t, ds.G, base.Slice(0, base.Len()), 2, pathhist.Options{})
	shards := make([]*Shard, len(engines))
	for i, eng := range engines {
		shards[i] = NewShard(eng, Config{EnableExtend: true})
	}
	shards[0].enterDegraded(errors.New("simulated write-ahead log failure"))
	front, err := NewShardedServer(cluster, shards, Config{EnableExtend: true})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(front)
	defer fsrv.Close()

	for i, b := range []*pathhist.Store{b1, b2} {
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fsrv.URL+"/extend", "application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var ext ShardedExtendResponse
		if err := json.NewDecoder(resp.Body).Decode(&ext); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ext.Shard != 1 {
			t.Fatalf("batch %d: status %d, shard %d — degraded shard 0 must never ingest", i, resp.StatusCode, ext.Shard)
		}
	}
	var st ShardedStats
	if code := shardedGetJSON(t, fsrv.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if st.Counters.IngestReroutes < 1 {
		t.Fatalf("no ingest reroutes counted: %+v", st.Counters)
	}
}

// TestShardedFrontDrain: BeginDrain flips /readyz and sheds /query and
// /extend with 503 + Retry-After, mirroring the single-engine contract.
func TestShardedFrontDrain(t *testing.T) {
	f := newShardedFixture(t, 2, Config{EnableExtend: true})
	f.front.BeginDrain()
	for _, probe := range []string{"/readyz", f.queryURLs()[0]} {
		resp, err := http.Get(f.frontURL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining %s: status %d, want 503", probe, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("draining %s: no Retry-After", probe)
		}
	}
	resp, err := http.Post(f.frontURL+"/extend", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /extend: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestRetryAfterJitter: the hint stays within [base, base+jitter] whole
// seconds and actually varies — shed clients must not retry in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		v := RetryAfter()
		n, err := strconv.Atoi(v)
		if err != nil || n < retryAfterSeconds || n > retryAfterSeconds+retryAfterJitterSeconds {
			t.Fatalf("Retry-After %q outside [%d, %d]", v, retryAfterSeconds, retryAfterSeconds+retryAfterJitterSeconds)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Retry-After never varied across 300 draws: %v", seen)
	}
}
