// Command ttserve exposes travel-time histogram retrieval as an HTTP JSON
// service over a dataset produced by ttgen — the "online routing
// application" deployment shape the paper's outlook describes. The data is
// held in -shards N independent index shards (default 1): one shard is
// served by its own engine, N > 1 through the fault-tolerant scatter-gather
// front (DESIGN.md §14). With -enable-extend the service also ingests live
// trajectory batches, published lock-free as index epochs (DESIGN.md §8).
//
// One lifecycle for every N (DESIGN.md §11): bind the listener behind a
// not-ready bootstrap handler; recover the shards in parallel — each
// restores the newest snapshot in its directory (-snapshot-dir itself at
// N = 1, shard-K under it otherwise) or builds from its part of
// trajectories.bin, then replays its write-ahead log's uncovered records;
// swap in the front — /readyz flips to 200 only now; on SIGINT/SIGTERM
// drain in-flight requests (every accepted /extend completes and is
// acknowledged) while new ones get 503 + Retry-After instead of connection
// resets, then write a final snapshot per shard. With -enable-extend and
// -snapshot-dir every /extend is fsynced to its shard's log before it is
// acknowledged, so a crash (SIGKILL, panic, power loss) loses nothing a
// client was told succeeded; -snapshot-interval bounds how much log a
// restart replays, and each snapshot rotates the log and prunes old
// generations down to -snapshot-keep. The listener applies
// read/header/idle timeouts so one slow client cannot pin goroutines
// forever. Refused at start-up: -shards < 1, -load-snapshot with
// -shards > 1.
//
//	ttserve -data data -addr :8080 [-enable-extend] [-auto-compact 16]
//	        [-snapshot-dir snapdir] [-snapshot-interval 5m] [-snapshot-keep 3]
//	        [-load-snapshot snapdir/snapshot-…snt] [-disable-wal]
//	        [-shards 4] [-mmap-snapshots]
//
//	GET  /query?path=17,42,43&tod=08:15&window=900&beta=20[&user=3]
//	GET  /query?path=17,42,43&from=1335830400&until=1335917000&beta=20
//	POST /extend            (body: trajectory batch in traj binary format)
//	POST /compact           (merge ingested partitions; new epoch)
//	POST /snapshot          (persist the served index to -snapshot-dir)
//	GET  /statsz
//	GET  /healthz           (liveness: 200 while the process runs)
//	GET  /readyz            (readiness: 200 once recovered and not draining)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pathhist"
	"pathhist/internal/ttserve"
)

// config carries the parsed flags; run is kept separate from main so the
// full lifecycle — listen, recover, serve, drain, final snapshot — is
// testable.
type config struct {
	data             string
	addr             string
	shards           int
	enableExtend     bool
	maxExtendMiB     int64
	maxTrajs         int
	autoCompact      int
	snapshotDir      string
	snapshotInterval time.Duration
	snapshotKeep     int
	loadSnapshot     string
	mmapSnapshots    bool
	disableWAL       bool
	maxWALMiB        int64
	maxBacklog       int
	queryTimeout     time.Duration
	extendTimeout    time.Duration

	// started, when non-nil, receives the bound listener address once the
	// server is recovered and serving (used by the lifecycle tests; nil in
	// main).
	started chan<- string
}

// walFileName is the write-ahead log's file name inside -snapshot-dir: the
// log and the snapshots it chains from live on the same filesystem, so a
// snapshot + rotation is atomic with respect to mount loss.
const walFileName = "extend.wal"

// shutdownTimeout bounds the graceful drain: in-flight requests get this
// long to complete after SIGINT/SIGTERM before the server gives up.
const shutdownTimeout = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttserve: ")
	var cfg config
	flag.StringVar(&cfg.data, "data", "data", "dataset directory (from ttgen)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.shards, "shards", 1,
		"number of independent index shards; >1 serves through the fault-tolerant scatter-gather front with one engine, write-ahead log and snapshot directory (shard-K under -snapshot-dir) per shard")
	flag.BoolVar(&cfg.enableExtend, "enable-extend", false,
		"accept live trajectory batches on POST /extend, compaction on POST /compact and snapshots on POST /snapshot")
	flag.Int64Var(&cfg.maxExtendMiB, "max-extend-mib", 64, "largest accepted /extend body in MiB")
	flag.IntVar(&cfg.maxTrajs, "max-extend-trajs", 0,
		"largest accepted /extend batch in trajectories (0 = unlimited); larger batches get 413")
	flag.IntVar(&cfg.autoCompact, "auto-compact", 16,
		"merge ingested partitions once this many accumulate (0 = manual /compact only)")
	flag.StringVar(&cfg.snapshotDir, "snapshot-dir", "",
		"directory for index snapshots and the ingest write-ahead log: enables POST /snapshot (with -enable-extend), periodic and shutdown snapshots, and crash recovery")
	flag.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 0,
		"write a snapshot (rotating the write-ahead log) this often (0 = only on demand and at shutdown)")
	flag.IntVar(&cfg.snapshotKeep, "snapshot-keep", ttserve.DefaultSnapshotKeep,
		"how many snapshot generations to retain in -snapshot-dir")
	flag.StringVar(&cfg.loadSnapshot, "load-snapshot", "",
		"restore the engine from this snapshot file instead of the newest one in -snapshot-dir (falls back to a build if the snapshot is unusable)")
	flag.BoolVar(&cfg.mmapSnapshots, "mmap-snapshots", false,
		"restore snapshots by memory-mapping the file read-only instead of copying it onto the heap (DESIGN.md §15): the index columns view the mapping zero-copy, and restart cost stays flat as the index grows")
	flag.BoolVar(&cfg.disableWAL, "disable-wal", false,
		"skip the ingest write-ahead log: /extend acknowledges after publication only, and batches since the last snapshot are lost on a crash")
	flag.Int64Var(&cfg.maxWALMiB, "max-wal-mib", 256,
		"shed /extend load (503 + Retry-After) once the write-ahead log exceeds this many MiB (0 = unbounded)")
	flag.IntVar(&cfg.maxBacklog, "max-partition-backlog", 0,
		"shed /extend load (503 + Retry-After) once the index holds more than this many partitions (0 = unbounded)")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 0,
		"abort /query requests that exceed this deadline with 504 (0 = unbounded); a ?timeout= parameter can lower but never raise it")
	flag.DurationVar(&cfg.extendTimeout, "extend-timeout", 0,
		"shed /extend requests still waiting for the ingest lock after this long with 504 (0 = unbounded); never interrupts a batch once it is logged")
	flag.Parse()

	if err := run(context.Background(), cfg); err != nil {
		log.Fatal(err)
	}
}

// bootstrapHandler serves while the index is being recovered: the process
// is alive (/healthz 200) but not routable (/readyz 503) and every other
// request is shed with 503 + Retry-After instead of connection refused —
// an orchestrator sees a starting replica, not a dead one.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", ttserve.RetryAfter())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"recovering: snapshot load and log replay in progress"}`)
	})
	return mux
}

// service is the surface run drives, whichever front serves: the handler,
// the drain switch, and "snapshot every shard".
type service interface {
	http.Handler
	BeginDrain()
	WriteSnapshots() ([]ttserve.ShardSnapshotResult, error)
}

// validate rejects flag combinations that would silently do something other
// than what was asked, before anything binds or loads.
func (cfg config) validate() error {
	switch {
	case cfg.shards < 1:
		return fmt.Errorf("-shards %d: need at least one shard", cfg.shards)
	case cfg.shards > 1 && cfg.loadSnapshot != "":
		return errors.New("-load-snapshot names one engine's snapshot and cannot restore -shards > 1; each shard restores the newest snapshot in its shard-K directory")
	}
	return nil
}

// run is the whole service lifecycle, the same for any shard count: bind
// behind the bootstrap handler, recover shards 0…N−1 in parallel, swap the
// front in, snapshot post-recovery / periodically / finally, drain. It
// returns once the server has shut down cleanly (nil) or failed.
func run(ctx context.Context, cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	// Signal wiring first: a SIGTERM during the (potentially long) recovery
	// triggers a clean exit at the next phase boundary. The AfterFunc
	// restores default signal handling the moment the first signal lands,
	// so a second signal hard-kills even mid-recovery — the signals are
	// never silently swallowed.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	// The listener binds before recovery starts, behind the bootstrap
	// handler. A bare ListenAndServe would accept connections with no
	// deadlines at all: a slowloris client (or a stalled proxy) could hold
	// request goroutines open forever. Headers get a tight deadline; bodies
	// a generous one (/extend uploads are tens of MiB); idle keep-alives
	// are bounded so a rolling restart is not hostage to dormant
	// connections.
	type handlerBox struct{ h http.Handler } // one concrete type for atomic.Value
	var handler atomic.Value                 // handlerBox: bootstrap, swapped for the real front
	handler.Store(handlerBox{bootstrapHandler()})
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s (not ready; recovering %d shard(s))", ln.Addr(), cfg.shards)

	var states []*shardState
	// release closes every recovered write-ahead log and engine.
	release := func() (err error) {
		for k, st := range states {
			if st.log != nil {
				if cerr := st.log.Close(); cerr != nil {
					err = errors.Join(err, fmt.Errorf("closing shard %d write-ahead log: %w", k, cerr))
				}
			}
			if st.eng != nil {
				st.eng.Close()
			}
		}
		return err
	}
	// abandon ends a start-up that will not serve: the bootstrap listener
	// goes down with it, and so does whatever was recovered so far.
	abandon := func(err error) error {
		httpSrv.Close()
		return errors.Join(err, release())
	}

	g, err := loadGraph(cfg.data)
	if err != nil {
		return abandon(err)
	}
	opts := pathhist.Options{
		Partition:             pathhist.ByZone,
		Estimator:             pathhist.EstimatorCSSFast,
		AutoCompactPartitions: cfg.autoCompact,
	}
	// Recovery opens each shard's write-ahead log, replays what its
	// snapshot does not cover, and only then is the shard recovered. Replay
	// fails closed — a log that does not chain from the restored state (or
	// fails its checksums) stops the process rather than silently serving
	// less than what was acknowledged.
	walEnabled := cfg.enableExtend && cfg.snapshotDir != "" && !cfg.disableWAL
	if states, err = recoverShards(g, opts, cfg, walEnabled); err != nil {
		return abandon(err)
	}
	if ctx.Err() != nil {
		log.Printf("interrupted while recovering; exiting")
		return abandon(nil)
	}
	front, err := newFront(g, opts, cfg, states)
	if err != nil {
		return abandon(err)
	}

	mode := "ingestion disabled"
	if cfg.enableExtend {
		mode = "live ingestion on POST /extend"
		if cfg.autoCompact > 0 {
			mode += fmt.Sprintf(", auto-compaction at %d partitions", cfg.autoCompact)
		}
		if walEnabled {
			mode += ", write-ahead logged"
		}
	}
	if cfg.snapshotDir != "" {
		mode += fmt.Sprintf(", snapshots to %s", cfg.snapshotDir)
	}
	total, replayed := 0, false
	for _, st := range states {
		total += st.eng.Trajectories()
		replayed = replayed || (st.log != nil && st.log.Size() > 16)
	}
	// Recovery complete: swap the real handler in; /readyz flips to 200.
	handler.Store(handlerBox{front})
	// Recovery's transients (the decoded trajectories, the suffix arrays)
	// are garbage now, but the heap goal of the last collection during
	// recovery still counts them: serving would grow the heap to about
	// twice recovery's live peak before collecting it. One collection now
	// sets the goal from what serving keeps, off the ready path.
	go runtime.GC()
	log.Printf("serving %d trajectories over %d edges in %d shard(s); listening on %s (%s)",
		total, g.NumEdges(), cfg.shards, ln.Addr(), mode)
	if cfg.started != nil {
		cfg.started <- ln.Addr().String()
	}

	snapshotAll := func(when string) error {
		res, err := front.WriteSnapshots()
		for _, r := range res {
			if r.Error == "" {
				log.Printf("%s snapshot: %s (%d bytes, epoch %d)", when, r.Path, r.Bytes, r.Epoch)
			}
		}
		return err
	}
	// A replayed log means the durable base is stale: snapshot now so the
	// next restart replays from here, and so the log is rotated down.
	if replayed {
		if err := snapshotAll("post-recovery"); err != nil {
			log.Printf("warning: post-recovery snapshot: %v", err)
		}
	}
	// Periodic snapshots bound the replay a crash victim pays for.
	if cfg.snapshotDir != "" && cfg.snapshotInterval > 0 {
		go func() {
			tick := time.NewTicker(cfg.snapshotInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := snapshotAll("periodic"); err != nil {
						log.Printf("warning: periodic snapshot: %v", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return errors.Join(err, release())
	case <-ctx.Done():
	}
	// Graceful drain: flip /readyz, shed new requests with 503 +
	// Retry-After, and let in-flight requests — including /extend
	// publications — complete and be acknowledged. Default signal handling
	// is already restored (the AfterFunc above), so a second signal kills
	// the process the default way.
	front.BeginDrain()
	log.Printf("shutting down: draining in-flight requests (limit %v)", shutdownTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	var drainErr error
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// A stuck client exceeded the drain budget. Keep going: the final
		// snapshot below persists every batch already acknowledged, which
		// matters more after a messy drain, not less.
		drainErr = fmt.Errorf("shutdown: %w", err)
		log.Printf("warning: %v; writing the final snapshot anyway", drainErr)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	// Final snapshot, after the drain: it captures every batch that was
	// acknowledged before the listener closed, so the next restart resumes
	// from exactly the state clients saw — written even when the drain
	// timed out, since the published engine state is valid regardless.
	if cfg.snapshotDir != "" {
		if err := snapshotAll("final"); err != nil {
			drainErr = errors.Join(fmt.Errorf("final snapshot: %w", err), drainErr)
		}
	}
	if err := errors.Join(drainErr, release()); err != nil {
		return err
	}
	log.Printf("shutdown complete")
	return nil
}

// buildOrRestore restores the engine from a snapshot when one is given and
// loadable, and otherwise builds from the trajectory store (fetched
// lazily — a successful restore never reads trajectories.bin at all). With
// mmapLoad set the restore memory-maps the file and serves zero-copy views
// over it (DESIGN.md §15) instead of copying the columns onto the heap.
// Snapshot loading fails closed — a corrupt, truncated, version-skewed or
// wrong-network file is reported and skipped, never served — but the
// service still comes up, via the same from-scratch build path a plain
// start uses.
func buildOrRestore(g *pathhist.Graph, loadStore func() (*pathhist.Store, error), opts pathhist.Options, snapshotPath string, mmapLoad bool) (*pathhist.Engine, string, error) {
	if snapshotPath != "" {
		var eng *pathhist.Engine
		var err error
		how := "restored from"
		if mmapLoad {
			eng, err = pathhist.LoadSnapshotFileMapped(g, snapshotPath, opts)
			how = "mapped read-only from"
		} else {
			eng, err = pathhist.LoadSnapshotFile(g, snapshotPath, opts)
		}
		if err == nil {
			return eng, fmt.Sprintf("%s %s, epoch %d", how, snapshotPath, eng.Epoch()), nil
		}
		log.Printf("warning: snapshot %s unusable (%v); falling back to a from-scratch build", snapshotPath, err)
	}
	store, err := loadStore()
	if err != nil {
		return nil, "", err
	}
	eng, err := pathhist.NewEngine(g, store, opts)
	if err != nil {
		return nil, "", err
	}
	return eng, "built from trajectories.bin", nil
}

func loadGraph(dir string) (*pathhist.Graph, error) {
	nf, err := os.Open(filepath.Join(dir, "network.bin"))
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	return pathhist.ReadGraph(nf)
}

func loadStore(dir string) (*pathhist.Store, error) {
	tf, err := os.Open(filepath.Join(dir, "trajectories.bin"))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	return pathhist.ReadStore(tf)
}
