package metrics

import "sync/atomic"

// ServerCounters are the serving-layer robustness counters exported on
// /statsz (DESIGN.md §12): how often deadlines fired, clients hung up,
// handlers panicked, and whether the process is in degraded read-only mode
// after a WAL failure. The counters are monotonically increasing except the
// two gauges; everything is safe for concurrent use.
type ServerCounters struct {
	// QueryTimeouts counts queries aborted by their server- or
	// client-requested deadline.
	QueryTimeouts atomic.Int64
	// CanceledRequests counts requests aborted because the client
	// disconnected before the response was written.
	CanceledRequests atomic.Int64
	// PanicsRecovered counts handler panics the recovery middleware
	// converted to 500 responses instead of a process crash.
	PanicsRecovered atomic.Int64
	// EncodeFailures counts /query answers json could not represent
	// (non-finite histogram mass), answered 500 instead of an empty 200.
	EncodeFailures atomic.Int64
	// WALFailed is a gauge: 1 after the write-ahead log latched its sticky
	// failed state, 0 while it is healthy.
	WALFailed atomic.Int64
	// DegradedMode is a gauge: 1 while the server is shedding writes and
	// serving reads only, 0 in normal operation.
	DegradedMode atomic.Int64

	// Sharded scatter-gather counters (DESIGN.md §14), all zero in
	// single-engine deployments.

	// ShardDispatches counts per-shard sub-query dispatches issued by the
	// query router.
	ShardDispatches atomic.Int64
	// HedgedDispatches is always zero: the router runs one attempt per
	// dispatch and never hedges. It stays only because the benchmark
	// harness still reads it (sharded.hedged_ratio).
	HedgedDispatches atomic.Int64
	// HedgeWins is always zero, for the same reason as HedgedDispatches
	// (sharded.hedge_win_ratio).
	HedgeWins atomic.Int64
	// ShardFailures counts dispatches that failed (fault injected, budget
	// exhausted, or shard down).
	ShardFailures atomic.Int64
	// ShardsShed counts dispatches skipped before issue because the shard's
	// health state machine said the shard is down.
	ShardsShed atomic.Int64
	// PartialResponses counts queries answered from a strict subset of
	// shards (partial: true in the JSON response).
	PartialResponses atomic.Int64
	// IngestReroutes counts ingest batches routed away from their
	// round-robin shard because it was down or degraded.
	IngestReroutes atomic.Int64
}

// ServerCounterValues is the plain-value snapshot of ServerCounters that
// marshals into the /statsz response.
type ServerCounterValues struct {
	QueryTimeouts    int64 `json:"query_timeouts"`
	CanceledRequests int64 `json:"canceled_requests"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	EncodeFailures   int64 `json:"encode_failures,omitempty"`
	WALFailed        int64 `json:"wal_failed"`
	DegradedMode     int64 `json:"degraded_mode"`
	ShardDispatches  int64 `json:"shard_dispatches,omitempty"`
	HedgedDispatches int64 `json:"hedged_dispatches,omitempty"`
	HedgeWins        int64 `json:"hedge_wins,omitempty"`
	ShardFailures    int64 `json:"shard_failures,omitempty"`
	ShardsShed       int64 `json:"shards_shed,omitempty"`
	PartialResponses int64 `json:"partial_responses,omitempty"`
	IngestReroutes   int64 `json:"ingest_reroutes,omitempty"`
}

// Snapshot reads every counter once. The values are individually atomic,
// not a consistent cut — fine for monitoring.
func (c *ServerCounters) Snapshot() ServerCounterValues {
	return ServerCounterValues{
		QueryTimeouts:    c.QueryTimeouts.Load(),
		CanceledRequests: c.CanceledRequests.Load(),
		PanicsRecovered:  c.PanicsRecovered.Load(),
		EncodeFailures:   c.EncodeFailures.Load(),
		WALFailed:        c.WALFailed.Load(),
		DegradedMode:     c.DegradedMode.Load(),
		ShardDispatches:  c.ShardDispatches.Load(),
		HedgedDispatches: c.HedgedDispatches.Load(),
		HedgeWins:        c.HedgeWins.Load(),
		ShardFailures:    c.ShardFailures.Load(),
		ShardsShed:       c.ShardsShed.Load(),
		PartialResponses: c.PartialResponses.Load(),
		IngestReroutes:   c.IngestReroutes.Load(),
	}
}
