// Package sharded is the scatter-gather serving layer (DESIGN.md §14): N
// independent pathhist engines, each indexing a contiguous stripe of the
// trajectory set, behind one query router that fans every sub-query out to
// all shards and merges the per-shard answers: candidate scans back into
// the exact global scan order when a β cutoff applies, sample statistics
// by summing when none does. With all shards healthy the merged answer is
// bit-identical to a single engine over the union of the stripes; when a
// shard is failing or down, the router sheds it and degrades to a partial
// answer from the survivors instead of failing the whole query.
//
// The fault-tolerance machinery lives in three places: a per-shard health
// state machine (health.go) that keeps known-down shards out of the fan-out,
// a dispatcher (dispatch.go) that runs one attempt per shard under a
// deadline budget carved from the request context, and the router
// (router.go) that restarts a query without a shard that failed mid-flight
// and reports the missing shards in the result.
package sharded

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pathhist"
	"pathhist/internal/metrics"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/traj"
)

// The fault-tolerance constants of the router and the health machine.
const (
	// minCoverage is the fraction of shards that must participate for a
	// query to be answered at all. Below the floor the router returns
	// ErrInsufficientCoverage instead of a partial result.
	minCoverage = 0.5
	// probeInterval is how long a down shard stays shed before a single
	// query is let through as a recovery probe.
	probeInterval = time.Second
	// failThreshold is how many consecutive dispatch failures mark a
	// shard down.
	failThreshold = 3
)

// Config parameterises a cluster. The zero value gets sensible defaults
// from normalize; only Shards is commonly set.
type Config struct {
	// Shards is the number of per-stripe engines (clamped to [1, |T|]).
	Shards int
	// Opts configures each shard's engine. Build forces the estimator off
	// and the caches disabled (see ShardOptions): the relaxation driver
	// runs once, over merged scans, so per-shard skip decisions or cache
	// hits would have nothing to attach to.
	Opts pathhist.Options
	// Counters receives the shard dispatch/failure/shed/partial counters
	// (an internal set is used when nil).
	Counters *metrics.ServerCounters
}

func (cfg Config) normalized() Config {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Counters == nil {
		cfg.Counters = &metrics.ServerCounters{}
	}
	return cfg
}

// ShardOptions is the per-shard engine configuration derived from the
// cluster options: the cardinality estimator is forced off (a per-shard
// estimate cannot stand in for the global cardinality the relaxation
// procedure decides on, and a skip would break bit-identity with the
// unsharded engine) and both result caches are disabled (the router never
// calls the shard's own TripQuery path, so they would only hold memory).
// The terminal-fallback memo the router does read lives on the shard's
// index (snt.Index.WholeSegment), not in these caches.
func ShardOptions(opts pathhist.Options) pathhist.Options {
	opts.Estimator = pathhist.EstimatorOff
	opts.DisableCache = true
	opts.DisableFullResultCache = true
	return opts
}

// shard is one stripe's engine plus its fault-tolerance state.
type shard struct {
	idx           int
	eng           *pathhist.Engine
	health        shardHealth
	lat           latencyRing
	dispatchSites [2]string
	attemptSites  [4]string
}

// Cluster is a set of per-stripe engines and the scatter-gather router over
// them. All methods are safe for concurrent use.
type Cluster struct {
	g      *network.Graph
	cfg    Config
	shards []*shard

	// ladder is the relaxation-ladder configuration the shared driver runs
	// with (pathhist.LadderConfig of the shard options).
	ladder query.Config

	// ingestMu serialises only the admission decision — validate against the
	// global time range (including batches still in flight, via pendingMax)
	// and reserve a shard. The shard-local durable write itself (WAL append,
	// fsync, index build) runs outside the lock, so batches routed to
	// different shards overlap their fsyncs instead of paying N sequential
	// ones; ingestBusy keeps same-shard batches applying in admission order.
	ingestMu   sync.Mutex
	ingestCond *sync.Cond // signalled when a shard's in-flight ingest ends
	ingestBusy []bool     // per-shard in-flight ingest latch
	rr         int        // round-robin ingest cursor
	pendingMax int64      // latest segment exit over every batch ever admitted
	pendingAny bool       // pendingMax is meaningful
}

// Stripes sorts the store by start time and carves it into n contiguous,
// near-even stripes (deep copies with ids renumbered from 0). Contiguity in
// the sorted order is what makes the router's merge comparator — (timestamp,
// shard, local id) — agree with the unsharded (timestamp, global id) scan
// order: the global id of a base record is its stripe's offset plus its
// local id, and stripe offsets increase with the shard index.
func Stripes(store *traj.Store, n int) []*traj.Store {
	store.SortByStart()
	if n < 1 {
		n = 1
	}
	if n > store.Len() {
		n = store.Len()
	}
	out := make([]*traj.Store, n)
	for i := 0; i < n; i++ {
		lo := i * store.Len() / n
		hi := (i + 1) * store.Len() / n
		out[i] = store.Slice(lo, hi)
	}
	return out
}

// Build stripes the store and builds one engine per stripe. The store is
// sorted by start time as a side effect.
func Build(g *network.Graph, store *traj.Store, cfg Config) (*Cluster, error) {
	if g == nil || store == nil || store.Len() == 0 {
		return nil, errors.New("sharded: nil graph or empty store")
	}
	cfg = cfg.normalized()
	stripes := Stripes(store, cfg.Shards)
	engines := make([]*pathhist.Engine, len(stripes))
	for i, st := range stripes {
		eng, err := pathhist.NewEngine(g, st, ShardOptions(cfg.Opts))
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
		}
		engines[i] = eng
	}
	return New(g, engines, cfg)
}

// New wraps already-built engines (Build's path, and the serving layer's
// restore path, where each shard is rebuilt from its own snapshot and WAL)
// into a cluster. The engines must hold contiguous stripes in shard order —
// New cannot check that; Build and the serving layer guarantee it.
func New(g *network.Graph, engines []*pathhist.Engine, cfg Config) (*Cluster, error) {
	if g == nil || len(engines) == 0 {
		return nil, errors.New("sharded: nil graph or no engines")
	}
	cfg = cfg.normalized()
	cfg.Shards = len(engines)
	c := &Cluster{g: g, cfg: cfg, ladder: pathhist.LadderConfig(cfg.Opts)}
	for i, eng := range engines {
		c.shards = append(c.shards, &shard{
			idx:           i,
			eng:           eng,
			dispatchSites: dispatchSites(i),
			attemptSites:  attemptSites(i),
		})
	}
	c.ingestCond = sync.NewCond(&c.ingestMu)
	c.ingestBusy = make([]bool, len(c.shards))
	return c, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Engine returns shard i's engine.
//
// Test seam for pathhist/internal/ttserve.
func (c *Cluster) Engine(i int) *pathhist.Engine { return c.shards[i].eng }

// Counters returns the cluster's metrics sink.
func (c *Cluster) Counters() *metrics.ServerCounters { return c.cfg.Counters }

// Trajectories sums the indexed trajectory count over all shards.
func (c *Cluster) Trajectories() int {
	n := 0
	for _, s := range c.shards {
		n += s.eng.Trajectories()
	}
	return n
}

// Close closes every shard engine (stopping background compactors).
func (c *Cluster) Close() {
	for _, s := range c.shards {
		s.eng.Close()
	}
}

// SetDegraded feeds shard i's serving-layer degraded latch (read-only mode
// after a WAL failure) into its health state: a degraded shard still serves
// reads, so the router keeps dispatching to it, but ingest routing avoids
// it.
func (c *Cluster) SetDegraded(i int, degraded bool) {
	c.shards[i].health.setDegraded(degraded)
}

// ShardStatus is one shard's health snapshot for /statsz.
type ShardStatus struct {
	State        string        `json:"state"`
	ConsecFails  int           `json:"consecutive_failures,omitempty"`
	P99          time.Duration `json:"-"`
	P99Millis    float64       `json:"p99_ms"`
	Trajectories int           `json:"trajectories"`
	Epoch        uint64        `json:"epoch"`
}

// Status snapshots every shard's health, latency and index state.
func (c *Cluster) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, s := range c.shards {
		st, fails := s.health.status()
		p99 := s.lat.p99()
		_, epoch := s.eng.QueryEngine().Snapshot()
		out[i] = ShardStatus{
			State:        st.String(),
			ConsecFails:  fails,
			P99:          p99,
			P99Millis:    float64(p99) / float64(time.Millisecond),
			Trajectories: s.eng.Trajectories(),
			Epoch:        epoch,
		}
	}
	return out
}

// ErrNoIngestShard is returned when every shard is down or degraded and no
// shard can durably accept a batch.
var ErrNoIngestShard = errors.New("sharded: no healthy shard to ingest into")

// RouteIngest validates a batch against the global time range, picks the
// ingest shard round-robin among healthy (not down, not degraded) shards,
// and runs the caller's ingest function for that shard. Admission — the
// validation plus the shard reservation — happens under the cluster's
// ingest lock; the ingest function itself runs outside it, so batches
// admitted to different shards overlap their durable writes (N concurrent
// fsyncs instead of N sequential ones). Two pieces keep that safe:
//
//   - pendingMax extends the validation watermark over batches still in
//     flight: every admitted batch must start strictly after every segment
//     exit any earlier batch admitted, whether or not that batch has been
//     applied yet. That global quiescence is what keeps cross-shard merge
//     order exact after ingestion — records of different batches can never
//     share a timestamp. The watermark stays even if an admitted batch's
//     ingest then fails (fail-closed: a batch overlapping a failed window
//     is rejected rather than admitted into an uncertain order).
//   - ingestBusy serialises same-shard batches in admission order: a shard
//     with an ingest in flight is not reserved again until it completes, so
//     a later batch can never apply before an earlier one on the same
//     engine (reservation waits when every healthy shard is busy).
//
// The ingest function performs the shard-local durable write (the serving
// layer logs to the shard's WAL and extends its engine; Extend below just
// extends). Its error is returned verbatim.
func (c *Cluster) RouteIngest(batch *traj.Store, ingest func(shard int) error) (int, error) {
	c.ingestMu.Lock()
	if err := c.validateGlobalLocked(batch); err != nil {
		c.ingestMu.Unlock()
		return -1, err
	}
	si, err := c.reserveIngestShardLocked()
	if err != nil {
		c.ingestMu.Unlock()
		return -1, err
	}
	if batch != nil && batch.Len() > 0 {
		if _, exit := batch.TimeRange(); !c.pendingAny || exit > c.pendingMax {
			c.pendingMax, c.pendingAny = exit, true
		}
	}
	c.ingestMu.Unlock()
	err = ingest(si)
	c.ingestMu.Lock()
	c.ingestBusy[si] = false
	c.ingestCond.Broadcast()
	c.ingestMu.Unlock()
	return si, err
}

// validateGlobalLocked checks the cross-shard Extend precondition: the batch
// must start strictly after the latest segment exit on ANY shard — not just
// the target's — and after every batch admitted before it, applied or still
// in flight (pendingMax). A batch older than some other shard's data would
// pass the target shard's own validation and silently break global merge
// order. Callers hold ingestMu.
func (c *Cluster) validateGlobalLocked(batch *traj.Store) error {
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	minStart := int64(0)
	for i := range batch.All() {
		if s := batch.All()[i].StartTime(); i == 0 || s < minStart {
			minStart = s
		}
	}
	if c.pendingAny && minStart <= c.pendingMax {
		return fmt.Errorf("sharded: batch starts at %d, inside the admitted range ending %d",
			minStart, c.pendingMax)
	}
	for _, s := range c.shards {
		ix, _ := s.eng.QueryEngine().Snapshot()
		if _, tmax := ix.TimeRange(); minStart <= tmax {
			return fmt.Errorf("sharded: batch starts at %d, inside shard %d's indexed range ending %d",
				minStart, s.idx, tmax)
		}
	}
	return nil
}

// reserveIngestShardLocked advances the round-robin cursor to the next shard
// that can durably ingest and has no ingest in flight, latching its busy
// flag. When some shard could ingest but every such shard is busy, it waits
// for one to free up; when no shard can ingest at all it fails immediately.
// Callers hold ingestMu.
func (c *Cluster) reserveIngestShardLocked() (int, error) {
	n := len(c.shards)
	for {
		anyIngestable := false
		rerouted := false
		for off := 0; off < n; off++ {
			si := (c.rr + off) % n
			if !c.shards[si].health.ingestable() {
				rerouted = true
				continue
			}
			anyIngestable = true
			if c.ingestBusy[si] {
				continue
			}
			if rerouted {
				c.cfg.Counters.IngestReroutes.Add(1)
			}
			c.ingestBusy[si] = true
			c.rr = (si + 1) % n
			return si, nil
		}
		if !anyIngestable {
			return -1, ErrNoIngestShard
		}
		c.ingestCond.Wait()
	}
}
