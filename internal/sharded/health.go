package sharded

import (
	"sync"
	"time"
)

// State is a shard's health state. Transitions (driven by dispatch results
// and the serving layer's degraded latch):
//
//	Ready ──(FailThreshold consecutive failures)──▶ Down
//	Down ──(ProbeInterval elapsed, one query admitted)──▶ Recovering
//	Recovering ──(probe succeeds)──▶ Ready
//	Recovering ──(probe fails)──▶ Down (probe timer re-armed)
//	Ready ⇄ Degraded (serving layer latch; reads still dispatch, ingest
//	                  routes elsewhere)
type State int32

// The shard health states.
const (
	Ready State = iota
	Degraded
	Down
	Recovering
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return "unknown"
}

// shardHealth is one shard's state machine. The zero value is Ready.
type shardHealth struct {
	mu          sync.Mutex
	state       State // Ready, Down or Recovering; Degraded is the latch below
	consecFails int
	probeAt     time.Time // when Down, the earliest next probe
	degraded    bool      // serving-layer read-only latch (orthogonal to state)
}

// admit decides whether a query dispatch may proceed, implementing the
// shed-before-dispatch policy: Ready (and Degraded — reads still work)
// shards always admit; a Down shard sheds until ProbeInterval has elapsed,
// then admits exactly one dispatch as the recovery probe (single-flight:
// the state moves to Recovering so concurrent queries keep shedding until
// the probe resolves).
func (h *shardHealth) admit(now time.Time) (ok, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case Down:
		if now.Before(h.probeAt) {
			return false, false
		}
		h.state = Recovering
		return true, true
	case Recovering:
		return false, false
	default:
		return true, false
	}
}

// participates reports whether the router should include the shard in a
// query's fan-out at all — the cheap pre-dispatch check that keeps a known
// down shard from costing every query a failed scatter and a restart.
func (h *shardHealth) participates(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case Down:
		return !now.Before(h.probeAt)
	case Recovering:
		return false
	default:
		return true
	}
}

// ingestable reports whether a batch may be routed to the shard: it must be
// fully healthy — not down (the write would be lost with the shard) and not
// degraded (its WAL already failed; it is read-only).
func (h *shardHealth) ingestable() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == Ready && !h.degraded
}

// success records a completed dispatch: failures reset, and a probe (or any
// success on a shard marked down between admit and completion) restores
// Ready.
func (h *shardHealth) success() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	h.state = Ready
}

// failure records a failed dispatch. A failed probe sends the shard
// straight back to Down with the probe timer re-armed; otherwise the shard
// goes down after threshold consecutive failures.
func (h *shardHealth) failure(probe bool, threshold int, probeInterval time.Duration, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails++
	if probe || h.consecFails >= threshold {
		h.state = Down
		h.probeAt = now.Add(probeInterval)
	}
}

func (h *shardHealth) setDegraded(d bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.degraded = d
}

// status snapshots the externally visible state (folding the degraded latch
// over Ready) and the consecutive-failure count.
func (h *shardHealth) status() (State, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state
	if st == Ready && h.degraded {
		st = Degraded
	}
	return st, h.consecFails
}

// latencyRingSize is the per-shard latency history the p99 hedge delay is
// computed over.
const latencyRingSize = 128

// latencyRing records recent successful dispatch latencies for one shard.
type latencyRing struct {
	mu  sync.Mutex
	buf [latencyRingSize]time.Duration
	n   int // filled entries
	pos int // next write
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.pos] = d
	r.pos = (r.pos + 1) % latencyRingSize
	if r.n < latencyRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// p99 returns the 99th-percentile recorded latency — the (n−1)·99/100-th
// entry of the sorted history — or 0 when the ring has too little history
// to be meaningful. That entry is at most the third largest of a full
// ring, so one pass keeps the k largest entries (k ≤ 3, ties kept) in
// descending order instead of sorting a copy.
func (r *latencyRing) p99() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < 8 {
		return 0
	}
	k := r.n - (r.n-1)*99/100
	var top [3]time.Duration
	for i, d := range r.buf[:r.n] {
		j := min(i, k)
		for ; j > 0 && top[j-1] < d; j-- {
			if j < k {
				top[j] = top[j-1]
			}
		}
		if j < k {
			top[j] = d
		}
	}
	return top[k-1]
}

// hedgeDelay is the delay before a dispatch launches its hedged second
// attempt: the replica's observed p99 when the ring has history, the
// configured default otherwise.
func (r *replica) hedgeDelay(fallback time.Duration) time.Duration {
	if d := r.lat.p99(); d > 0 {
		return d
	}
	return fallback
}
