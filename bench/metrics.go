package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json repeats these tables
// for the driver; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the reference median a metric may worsen by; 0 = not gated
}

// endToEnd are the numbers a routing client or an operator of ttserve sees,
// reported by every workload with tracing off. README.md, "A/A", has the
// spreads the bounds were set against.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"query_rps", "1/s", "higher", 0.25},
	{"restart_ready_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"index_bytes_per_record", "B", "lower", 0.01},
}

// ingestOnly are end-to-end numbers only ingest_mixed has. The driver's
// contract wants every listed metric from every workload, so these are
// printed and compared by the benchmark's own -aa mode and stay out of
// BENCHMARK.json.
var ingestOnly = []metricDef{
	{"extend_p50_ms", "ms", "lower", 0.25},
	// The acks that wait out a compaction publish take 200 to 400 ms. The
	// 90th percentile lands on either side of that cliff from run to run,
	// and the slowest ack is one draw of the cliff's height: both are
	// reported, neither is held to a bound.
	{"extend_p90_ms", "ms", "lower", 0},
	{"extend_max_ms", "ms", "lower", 0},
}

// perLayer are the traced run's numbers, one module of the repository per
// prefix. Sources: the in-process replay (trace.go) for everything timed
// around a layer's public functions, /statsz and /proc of the real server
// for the hit ratios, purges, partitions and proc.* figures.
var perLayer = []metricDef{
	{"ttserve.serve_us", "us", "lower", 0},
	{"ttserve.self_us", "us", "lower", 0},
	{"ttserve.resp_bytes", "B", "lower", 0},
	{"proc.cpu_ms_per_query", "ms", "lower", 0},
	{"proc.threads", "count", "lower", 0},
	{"pathhist.query_us", "us", "lower", 0},
	{"pathhist.self_us", "us", "lower", 0},
	{"query.trip_us", "us", "lower", 0},
	{"query.self_us", "us", "lower", 0},
	{"query.index_scans_per_query", "count", "lower", 0},
	{"query.final_subs_per_query", "count", "lower", 0},
	{"query.scan_useful_ratio", "ratio", "higher", 0},
	{"query.estimator_skips_per_query", "count", "higher", 0},
	{"query.full_cache_hit_ratio", "ratio", "higher", 0},
	{"query.sub_cache_hit_ratio", "ratio", "higher", 0},
	{"query.cache_purges", "count", "lower", 0},
	{"card.estimate_us", "us", "lower", 0},
	{"fmindex.backward_us", "us", "lower", 0},
	{"fmindex.backward_calls_per_query", "count", "lower", 0},
	{"snt.scan_us", "us", "lower", 0},
	{"snt.scan_samples_per_sub", "count", "lower", 0},
	{"temporal.count_range_ns", "ns", "lower", 0},
	{"snt.partitions_end", "count", "lower", 0},
	{"snt.build_s", "s", "lower", 0},
	{"hist.from_samples_us", "us", "lower", 0},
	{"hist.convolve_us", "us", "lower", 0},
	{"sharded.query_us", "us", "lower", 0},
	{"sharded.overhead_ratio", "ratio", "lower", 0},
	{"sharded.dispatches_per_query", "count", "lower", 0},
	{"sharded.hedged_ratio", "ratio", "lower", 0},
	{"sharded.hedge_win_ratio", "ratio", "higher", 0},
	{"sharded.partial_ratio", "ratio", "lower", 0},
	{"sharded.single_engine_mismatch_ratio", "ratio", "lower", 0},
	{"traj.decode_us", "us", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.fsync_ms_per_append", "ms", "lower", 0},
	{"wal.group_commit_ratio", "ratio", "higher", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"ingest.validate_us", "us", "lower", 0},
	{"ingest.extend_ms", "ms", "lower", 0},
	{"ingest.extend_records_per_s", "1/s", "higher", 0},
	{"ingest.compactions", "count", "lower", 0},
	{"ingest.compact_ms", "ms", "lower", 0},
	{"ingest.compact_records_rewritten", "count", "lower", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"snapshot.bytes_per_record", "B", "lower", 0},
	{"snapshot.load_copied_ms", "ms", "lower", 0},
	{"snapshot.load_mapped_ms", "ms", "lower", 0},
	{"restart.wal_replayed_records", "count", "lower", 0},
	{"loadgen.query_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"loadgen.host_steal_ratio", "ratio", "lower", 0},
	{"loadgen.fail_ratio", "ratio", "lower", 0},
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
