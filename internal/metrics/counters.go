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
	// query router (hedge attempts not included).
	ShardDispatches atomic.Int64
	// HedgedDispatches counts dispatches whose p99-based hedge timer fired
	// and launched a second attempt.
	HedgedDispatches atomic.Int64
	// HedgeWins counts hedged dispatches where the second attempt finished
	// first.
	HedgeWins atomic.Int64
	// CrossReplicaHedges counts hedged dispatches whose second attempt was
	// sent to a different replica of the shard than the first (always zero
	// with replica sets of one, where the hedge re-asks the same engine).
	CrossReplicaHedges atomic.Int64
	// ShardFailures counts dispatches that failed outright (fault injected,
	// budget exhausted, or shard down) after any hedging.
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
	QueryTimeouts      int64 `json:"query_timeouts"`
	CanceledRequests   int64 `json:"canceled_requests"`
	PanicsRecovered    int64 `json:"panics_recovered"`
	EncodeFailures     int64 `json:"encode_failures,omitempty"`
	WALFailed          int64 `json:"wal_failed"`
	DegradedMode       int64 `json:"degraded_mode"`
	ShardDispatches    int64 `json:"shard_dispatches,omitempty"`
	HedgedDispatches   int64 `json:"hedged_dispatches,omitempty"`
	HedgeWins          int64 `json:"hedge_wins,omitempty"`
	CrossReplicaHedges int64 `json:"cross_replica_hedges,omitempty"`
	ShardFailures      int64 `json:"shard_failures,omitempty"`
	ShardsShed         int64 `json:"shards_shed,omitempty"`
	PartialResponses   int64 `json:"partial_responses,omitempty"`
	IngestReroutes     int64 `json:"ingest_reroutes,omitempty"`
}

// Snapshot reads every counter once. The values are individually atomic,
// not a consistent cut — fine for monitoring.
func (c *ServerCounters) Snapshot() ServerCounterValues {
	return ServerCounterValues{
		QueryTimeouts:      c.QueryTimeouts.Load(),
		CanceledRequests:   c.CanceledRequests.Load(),
		PanicsRecovered:    c.PanicsRecovered.Load(),
		EncodeFailures:     c.EncodeFailures.Load(),
		WALFailed:          c.WALFailed.Load(),
		DegradedMode:       c.DegradedMode.Load(),
		ShardDispatches:    c.ShardDispatches.Load(),
		HedgedDispatches:   c.HedgedDispatches.Load(),
		HedgeWins:          c.HedgeWins.Load(),
		CrossReplicaHedges: c.CrossReplicaHedges.Load(),
		ShardFailures:      c.ShardFailures.Load(),
		ShardsShed:         c.ShardsShed.Load(),
		PartialResponses:   c.PartialResponses.Load(),
		IngestReroutes:     c.IngestReroutes.Load(),
	}
}
