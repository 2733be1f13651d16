package ttserve

import "pathhist/internal/metrics"

// Counters exposes the robustness counters (shared, live — callers must
// only read).
func (c *core) Counters() *metrics.ServerCounters { return c.counters }

// SetReady overrides the readiness bit (it starts true — a constructed
// front wraps fully recovered engines). BeginDrain clears it permanently.
func (c *core) SetReady(v bool) { c.ready.Store(v && !c.draining.Load()) }
