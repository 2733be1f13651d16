package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"pathhist"
	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/query"
	"pathhist/internal/sharded"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/ttserve"
	"pathhist/internal/wal"
)

// The traced replay times calls into each layer's public functions from
// outside — nothing under internal/, cmd/ or the root package is edited —
// so that a later change to one layer can be held against that layer's own
// number. Nesting levels run as separate passes over the same requests,
// each on its own Engine.Replica(): replicas share the index snapshot and
// own their caches, so every level meets the same cache history, and a
// level's self time is its span minus the span of the level below for the
// same request.

const (
	// traceHeadPerSecond requests of the workload's sequence are replayed
	// per second of -seconds (2 000 at the benchmark's 10 s).
	traceHeadPerSecond = 200
	// shardedShare of that head also goes through the 4-shard cluster,
	// whose queries cost ten times a single engine's.
	shardedShare = 10
	// traceBatches ingest batches are replayed on the write side.
	traceBatches = 30
	// bucketSeconds is the engine's default histogram bucket width.
	bucketSeconds = 10
)

// span is one timed call. Children carry their parent's id; spans of one
// request share req. Children are re-executions on a replica, so their
// clock intervals follow their parent's instead of lying inside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // request or batch number
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name})
	id := len(t.spans) - 1
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// series collects one number per request (or per final sub-query, or per
// batch) under a metric name; the report is each series' median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// spqOf translates a generated request exactly as pathhist.Engine.QueryCtx
// does for a periodic query.
func spqOf(q pathhist.Query) query.SPQ {
	user := traj.NoUser
	if q.FilterUser {
		user = q.User
	}
	return query.SPQ{
		Path:     q.Path,
		Interval: snt.PeriodicAround(q.Around, q.WindowSeconds),
		Filter:   snt.Filter{User: user, ExcludeTraj: -1},
		Beta:     q.Beta,
	}
}

// traceReplay fills o.layer with the in-process figures and writes the
// spans to bench/out/trace-<workload>.json.
func traceReplay(lay layout, d *deployment, in *inputs, p params, o *outcome) error {
	tr := &tracer{t0: time.Now()}
	ser := series{}

	head := in.order
	if n := traceHeadPerSecond * p.seconds; len(head) > n {
		head = head[:n]
	}
	build := time.Now()
	eng, err := pathhist.NewEngine(d.ds.G, d.served, serveOptions())
	if err != nil {
		return err
	}
	defer eng.Close()
	o.layer["snt.build_s"] = time.Since(build).Seconds()

	if err := replayReads(tr, ser, eng, in, head, o); err != nil {
		return err
	}
	if err := replaySharded(tr, ser, eng, d, in, head[:max(1, len(head)/shardedShare)], o); err != nil {
		return err
	}
	if err := replayWrites(tr, ser, eng, d, p, o); err != nil {
		return err
	}
	for name, xs := range ser {
		o.layer[name] = median(xs)
	}
	out := filepath.Join(lay.module, "out", "trace-"+p.workload+".json")
	if err := tr.write(out); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	o.notef("%d spans written to %s", len(tr.spans), out)
	return nil
}

// replayReads runs the head of the workload's sequence through the read
// path's nesting levels.
func replayReads(tr *tracer, ser series, eng *pathhist.Engine, in *inputs, head []int32, o *outcome) error {
	ctx := context.Background()
	serveRep, queryRep, tripRep, plainRep := eng, eng.Replica(), eng.Replica(), eng.Replica()
	for _, r := range []*pathhist.Engine{queryRep, tripRep, plainRep} {
		defer r.Close()
	}
	call := func(url string) (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil)
	}

	// Level 0: the handler, parse to encoded body. The same loop without
	// spans on another replica gives the untraced figure.
	handler := ttserve.NewServer(serveRep, ttserve.Config{})
	plain := ttserve.NewServer(plainRep, ttserve.Config{})
	for _, r := range in.warm {
		rec, req := call(r.url)
		handler.ServeHTTP(rec, req)
		rec, req = call(r.url)
		plain.ServeHTTP(rec, req)
		if _, err := queryRep.QueryCtx(ctx, r.q); err != nil {
			return err
		}
	}
	full0 := serveRep.FullCacheStats()
	serveSpan := make([]int, len(head))
	serveUS := make([]float64, len(head))
	for i, pi := range head {
		rec, req := call(in.pool[pi].url)
		id := tr.begin("ttserve.serve", i, -1)
		handler.ServeHTTP(rec, req)
		took := tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: status %d for %s", rec.Code, in.pool[pi].url)
		}
		serveSpan[i], serveUS[i] = id, us(took)
		ser.add("ttserve.serve_us", serveUS[i])
		ser.add("ttserve.resp_bytes", float64(rec.Body.Len()))
	}
	full1 := serveRep.FullCacheStats()
	plainUS := make([]float64, len(head))
	for i, pi := range head {
		rec, req := call(in.pool[pi].url)
		start := time.Now()
		plain.ServeHTTP(rec, req)
		plainUS[i] = us(time.Since(start))
	}
	traced, untraced := median(serveUS), median(plainUS)
	o.notef("tracing overhead: handler median %.2f us traced, %.2f us untraced (%+.1f%%); in-process full-cache hit ratio %.4f",
		traced, untraced, 100*(traced/untraced-1),
		ratio(float64(full1.Hits-full0.Hits), float64(full1.Hits-full0.Hits+full1.Misses-full0.Misses)))

	// Level 1: the public engine call.
	querySpan := make([]int, len(head))
	queryUS := make([]float64, len(head))
	for i, pi := range head {
		id := tr.begin("pathhist.query", i, serveSpan[i])
		_, err := queryRep.QueryCtx(ctx, in.pool[pi].q)
		took := tr.end(id)
		if err != nil {
			return err
		}
		querySpan[i], queryUS[i] = id, us(took)
		ser.add("pathhist.query_us", queryUS[i])
		ser.add("ttserve.self_us", max(0, serveUS[i]-queryUS[i]))
	}

	// Level 2: the trip query, then the leaf calls for each of its final
	// sub-queries, straight against the index snapshot it ran on. This
	// replica's warm-up runs here, because on route_hot the warm-up pass is
	// the only time anything below the full-result cache runs: its leaf
	// calls are reported, its trip times are not.
	qe := tripRep.QueryEngine()
	ix := qe.Index()
	est := card.New(ix, card.CSSFast)
	tmin, tmax := ix.TimeRange()
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	tripPass := func(i int, r request, parent int, timed bool) error {
		spq := spqOf(r.q)
		tripID := tr.begin("query.trip", i, parent)
		res, err := qe.TripQueryCtx(ctx, spq)
		trip := us(tr.end(tripID))
		if err != nil {
			return err
		}
		if timed {
			ser.add("query.trip_us", trip)
			ser.add("pathhist.self_us", max(0, queryUS[i]-trip))
		}
		if res.FullCacheHit {
			// Nothing below the cache ran; the whole trip is the lookup.
			ser.add("query.self_us", trip)
			ser.add(leavesPerRequest, 0)
			return nil
		}
		ser.add("query.index_scans_per_query", float64(res.IndexScans))
		ser.add("query.final_subs_per_query", float64(len(res.Subs)))
		ser.add("query.estimator_skips_per_query", float64(res.EstimatorSkips))
		ser.add("fmindex.backward_calls_per_query", float64(len(res.Subs)*ix.NumPartitions()))
		withData := 0
		var leaves float64
		leaf := func(name string, fn func()) float64 {
			id := tr.begin(name, i, tripID)
			fn()
			d := us(tr.end(id))
			leaves += d
			return d
		}
		hists := make([]*hist.Histogram, len(res.Subs))
		for j := range res.Subs {
			sub := &res.Subs[j]
			beta := spq.Beta
			if sub.Interval.Kind == snt.Fixed {
				beta = 0 // the terminal fallback: all data, no sample-size requirement
			}
			if !sub.Fallback {
				withData++
			}
			ser.add("fmindex.backward_us", leaf("fmindex.backward", func() { ix.ISARanges(sub.Path) }))
			if beta > 0 {
				ser.add("card.estimate_us", leaf("card.estimate", func() { est.Estimate(sub.Path, sub.Interval, sub.Filter) }))
			}
			var xs []int
			ser.add("snt.scan_us", leaf("snt.scan", func() {
				view, _ := ix.GetTravelTimesWith(sc, sub.Path, sub.Interval, sub.Filter, beta)
				xs = append([]int(nil), view...)
			}))
			ser.add("snt.scan_samples_per_sub", float64(len(xs)))
			if fx := ix.Frozen().Get(sub.Path[0]); fx != nil {
				// Two binary searches take tens of nanoseconds, less than
				// reading the clock: time a sweep over the data's days and
				// divide.
				const sweeps = 64
				id := tr.begin("temporal.count_range", i, tripID)
				for k := int64(0); k < sweeps; k++ {
					lo := tmin + (tmax-tmin)*k/sweeps
					fx.CountRange(lo, lo+snt.DaySeconds)
				}
				ser.add("temporal.count_range_ns", float64(tr.end(id))/sweeps)
			}
			if len(xs) > 0 {
				ser.add("hist.from_samples_us", leaf("hist.from_samples", func() { hists[j] = hist.FromSamples(xs, bucketSeconds) }))
			}
		}
		ser.add("hist.convolve_us", leaf("hist.convolve", func() {
			var conv *hist.Histogram
			for _, h := range hists {
				conv = conv.Convolve(h)
			}
		}))
		ser.add("query.scan_useful_ratio", ratio(float64(withData), float64(res.IndexScans)))
		if timed {
			// What the trip spent outside the leaf calls of its final
			// sub-queries: partitioning, relaxation, scans that came back
			// short, cache traffic.
			ser.add("query.self_us", max(0, trip-leaves))
			ser.add(leavesPerRequest, leaves)
		}
		return nil
	}
	for i, r := range in.warm {
		if err := tripPass(-1-i, r, -1, false); err != nil {
			return err
		}
	}
	for i, pi := range head {
		if err := tripPass(i, in.pool[pi], querySpan[i], true); err != nil {
			return err
		}
	}
	// The layers' median self times beside the median handler time. They add
	// up where requests are alike (route_hot) and fall short where half of
	// them cost ten times the other half (the cold workloads): a median of
	// differences is not the difference of medians.
	sum := median(ser["ttserve.self_us"]) + median(ser["pathhist.self_us"]) + median(ser["query.self_us"]) + median(ser[leavesPerRequest])
	o.notef("budget: median self times ttserve %.1f + pathhist %.1f + query %.1f + leaf calls %.1f = %.1f us, %.0f%% of the median ttserve.serve_us",
		median(ser["ttserve.self_us"]), median(ser["pathhist.self_us"]), median(ser["query.self_us"]), median(ser[leavesPerRequest]),
		sum, 100*sum/traced)
	delete(ser, leavesPerRequest)
	return nil
}

// leavesPerRequest is a working series, not a reported metric: the summed
// leaf-call time of one request.
const leavesPerRequest = "leaves per request"

// replaySharded asks the same questions of a 4-shard cluster built like
// ttserve -shards 4 builds it, and counts the answers that differ from the
// single engine's.
func replaySharded(tr *tracer, ser series, single *pathhist.Engine, d *deployment, in *inputs, head []int32, o *outcome) error {
	cluster, err := sharded.Build(d.ds.G, d.served, sharded.Config{Shards: 4, Opts: serveOptions()})
	if err != nil {
		return err
	}
	defer cluster.Close()
	ctx := context.Background()
	for _, r := range in.warm[:min(len(in.warm), warmRequests)] {
		if _, err := cluster.Query(ctx, r.q); err != nil {
			return err
		}
	}
	c0 := cluster.Counters().Snapshot()
	trips := ser["query.trip_us"]
	ask, mismatches := engineOracle(single), 0
	for i, pi := range head {
		id := tr.begin("sharded.query", i, -1)
		res, err := cluster.Query(ctx, in.pool[pi].q)
		took := us(tr.end(id))
		if err != nil {
			return err
		}
		want, err := ask(in.pool[pi].q)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(answerOf(res.MeanSeconds, res.Hist), want) {
			mismatches++
		}
		ser.add("sharded.query_us", took)
		if i < len(trips) && trips[i] > 0 {
			ser.add("sharded.overhead_ratio", took/trips[i])
		}
	}
	c1 := cluster.Counters().Snapshot()
	dispatches := float64(c1.ShardDispatches - c0.ShardDispatches)
	hedged := float64(c1.HedgedDispatches - c0.HedgedDispatches)
	o.layer["sharded.dispatches_per_query"] = dispatches / float64(len(head))
	o.layer["sharded.hedged_ratio"] = ratio(hedged, dispatches)
	o.layer["sharded.hedge_win_ratio"] = ratio(float64(c1.HedgeWins-c0.HedgeWins), hedged)
	o.layer["sharded.partial_ratio"] = float64(c1.PartialResponses-c0.PartialResponses) / float64(len(head))
	o.layer["sharded.single_engine_mismatch_ratio"] = float64(mismatches) / float64(len(head))
	return nil
}

// replayWrites walks the first ingest batches through the write path's
// layers one call at a time — decode, validate, log, index — then snapshots,
// loads the snapshot both ways and replays the log over it, which is what a
// restart does.
func replayWrites(tr *tracer, ser series, readEng *pathhist.Engine, d *deployment, p params, o *outcome) error {
	eng, batches, baseRecords := readEng, d.batches, d.served.NumTraversals()
	if p.workload != "ingest_mixed" {
		// The read side served the whole dataset; the write side starts
		// from the same 80 % base ingest_mixed serves.
		base, bs, err := cutDataset("ingest_mixed", d.ds.Store, p.seconds)
		if err != nil {
			return err
		}
		if eng, err = pathhist.NewEngine(d.ds.G, base, serveOptions()); err != nil {
			return err
		}
		defer eng.Close()
		batches, baseRecords = bs, base.NumTraversals()
	}
	if len(batches) > traceBatches {
		batches = batches[:traceBatches]
	}
	dir := filepath.Join(d.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(dir, "extend.wal"))
	if err != nil {
		return err
	}
	defer log.Close()

	var snapPath string
	var userBytes, records int
	var extendTime time.Duration
	for i, b := range batches {
		var store *traj.Store
		id := tr.begin("traj.decode", i, -1)
		store, err = pathhist.ReadStore(bytes.NewReader(b.body))
		ser.add("traj.decode_us", us(tr.end(id)))
		if err != nil {
			return err
		}
		id = tr.begin("ingest.validate", i, -1)
		err = eng.ValidateExtend(store)
		ser.add("ingest.validate_us", us(tr.end(id)))
		if err != nil {
			return err
		}
		id = tr.begin("wal.append", i, -1)
		err = log.Append(uint64(eng.Trajectories()), store.Len(), b.body)
		ser.add("wal.append_ms", ms(tr.end(id)))
		if err != nil {
			return err
		}
		id = tr.begin("ingest.extend", i, -1)
		_, err = eng.Extend(store)
		took := tr.end(id)
		if err != nil {
			return err
		}
		ser.add("ingest.extend_ms", ms(took))
		extendTime += took
		userBytes += len(b.body)
		records += b.records
		if i == len(batches)/2 {
			id = tr.begin("snapshot.write", i, -1)
			st, err := eng.SnapshotFileIn(dir)
			o.layer["snapshot.write_ms"] = ms(tr.end(id))
			if err != nil {
				return err
			}
			snapPath = st.Path
			o.layer["snapshot.bytes_per_record"] = float64(st.Bytes) / float64(baseRecords+records)
		}
	}
	o.layer["ingest.extend_records_per_s"] = float64(records) / extendTime.Seconds()
	ws := log.Stats()
	o.layer["wal.fsync_ms_per_append"] = float64(ws.FsyncNanos) / 1e6 / float64(ws.Appends)
	o.layer["wal.group_commit_ratio"] = ratio(float64(ws.GroupCommits), float64(ws.Appends))
	o.layer["wal.bytes_per_user_byte"] = float64(ws.Bytes) / float64(userBytes)

	// Close waits for a background merge in flight, so the compaction
	// figures are final.
	eng.Close()
	n, last := eng.CompactionInfo()
	o.layer["ingest.compactions"] = float64(n)
	o.layer["ingest.compact_ms"] = ms(last.Elapsed)
	o.layer["ingest.compact_records_rewritten"] = float64(last.RecordsRebuilt)

	id := tr.begin("snapshot.load_copied", 0, -1)
	copied, err := pathhist.LoadSnapshotFile(d.ds.G, snapPath, serveOptions())
	o.layer["snapshot.load_copied_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	copied.Close()
	id = tr.begin("snapshot.load_mapped", 0, -1)
	mapped, err := pathhist.LoadSnapshotFileMapped(d.ds.G, snapPath, serveOptions())
	o.layer["snapshot.load_mapped_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	defer mapped.Close()
	id = tr.begin("restart.wal_replay", 0, -1)
	applied, err := ttserve.ReplayWAL(mapped, log)
	tr.end(id)
	if err != nil {
		return err
	}
	o.layer["restart.wal_replayed_records"] = float64(applied)
	if got, want := mapped.Trajectories(), eng.Trajectories(); got != want {
		o.problemf("in-process restart recovered %d trajectories, the writer had %d", got, want)
	}
	return nil
}
