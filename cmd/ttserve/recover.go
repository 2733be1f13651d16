package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"pathhist"
	"pathhist/internal/sharded"
	"pathhist/internal/ttserve"
	"pathhist/internal/wal"
)

// shardDir is shard k's durability directory under -snapshot-dir: its own
// snapshots and its own extend.wal, so shards fail, snapshot and recover
// independently.
func shardDir(base string, k int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%d", k))
}

// shardState is one shard's recovered pieces.
type shardState struct {
	eng      *pathhist.Engine
	log      *wal.WAL
	snapPath string
	dir      string
	err      error
}

// recoverShards recovers shards 0…N−1 in parallel. What differs by N is
// where a shard lives and what it is built from: the one shard of N = 1
// owns -snapshot-dir itself, the whole trajectories.bin, the full engine
// options and an explicit -load-snapshot; shard K of N > 1 owns shard-K,
// its stripe and sharded.ShardOptions. Striping is deterministic (sort by
// start time, contiguous near-even slices), so a shard rebuilt from
// trajectories.bin always receives the stripe it held before, and its WAL
// replay chains from it. The returned states are the ones to release, also
// on error.
func recoverShards(g *pathhist.Graph, opts pathhist.Options, cfg config, walEnabled bool) ([]*shardState, error) {
	n := cfg.shards
	if n > 1 {
		opts = sharded.ShardOptions(opts)
	}
	// The trajectory store is only needed when some shard is actually built
	// — a successful restore must not pay for reading and parsing
	// trajectories.bin (the biggest file in the dataset), so it loads (and
	// stripes) lazily, once, inside the fallback path.
	var once sync.Once
	var stripes []*pathhist.Store
	var stripeErr error
	stripe := func(k int) (*pathhist.Store, error) {
		once.Do(func() {
			var store *pathhist.Store
			if store, stripeErr = loadStore(cfg.data); stripeErr != nil {
				return
			}
			if stripes = []*pathhist.Store{store}; n > 1 {
				stripes = sharded.Stripes(store, n)
			}
			if len(stripes) != n {
				stripeErr = fmt.Errorf("dataset holds %d trajectories, fewer than %d shards", store.Len(), n)
			}
		})
		if stripeErr != nil {
			return nil, stripeErr
		}
		return stripes[k], nil
	}
	states := make([]*shardState, n)
	var wg sync.WaitGroup
	for k := range states {
		st := &shardState{snapPath: cfg.loadSnapshot, dir: cfg.snapshotDir}
		if n > 1 && st.dir != "" {
			st.dir = shardDir(st.dir, k)
		}
		states[k] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.err = st.recover(g, k, func() (*pathhist.Store, error) { return stripe(k) },
				opts, walEnabled, cfg.mmapSnapshots)
		}()
	}
	wg.Wait()
	for k, st := range states {
		if st.err != nil {
			return states, fmt.Errorf("shard %d: %w", k, st.err)
		}
	}
	return states, nil
}

// recover restores shard k: the snapshot to start from — an explicit
// -load-snapshot wins over the newest one in the shard's directory — or a
// build from its part of the store when there is none, then its write-ahead
// log opened and the records the snapshot does not cover replayed.
func (st *shardState) recover(g *pathhist.Graph, k int, store func() (*pathhist.Store, error), opts pathhist.Options, walEnabled, mmapLoad bool) error {
	var err error
	if st.dir != "" {
		if err = os.MkdirAll(st.dir, 0o755); err != nil {
			return fmt.Errorf("snapshot dir: %w", err)
		}
		if st.snapPath == "" {
			if st.snapPath, err = pathhist.FindLatestSnapshot(st.dir); err != nil {
				return fmt.Errorf("scanning %s for snapshots: %w", st.dir, err)
			}
		}
	}
	var source string
	if st.eng, source, err = buildOrRestore(g, store, opts, st.snapPath, mmapLoad); err != nil {
		return err
	}
	log.Printf("shard %d: %s", k, source)
	if !walEnabled {
		return nil
	}
	if st.log, err = wal.Open(filepath.Join(st.dir, walFileName)); err != nil {
		return fmt.Errorf("write-ahead log: %w", err)
	}
	if ws := st.log.Stats(); ws.TornTail {
		log.Printf("shard %d: write-ahead log dropped a torn %d-byte tail (crash mid-append; the batch was never acknowledged)",
			k, ws.TornBytes)
	}
	applied, err := ttserve.ReplayWAL(st.eng, st.log)
	if err != nil {
		return fmt.Errorf("replaying write-ahead log: %w", err)
	}
	if applied > 0 {
		log.Printf("shard %d: write-ahead log replayed %d acknowledged batches (epoch %d, %d trajectories)",
			k, applied, st.eng.Epoch(), st.eng.Trajectories())
	}
	return nil
}

// newFront puts the recovered shards behind their HTTP front. One shard is
// served by its own engine — estimator and both result caches on, which a
// scatter-gather merge cannot use; more are served through the cluster's
// router.
func newFront(g *pathhist.Graph, opts pathhist.Options, cfg config, states []*shardState) (service, error) {
	front := ttserve.Config{
		EnableExtend:          cfg.enableExtend,
		MaxExtendBytes:        cfg.maxExtendMiB << 20,
		MaxExtendTrajectories: cfg.maxTrajs,
		SnapshotKeep:          cfg.snapshotKeep,
		MaxWALBytes:           cfg.maxWALMiB << 20,
		MaxPartitionBacklog:   cfg.maxBacklog,
		QueryTimeout:          cfg.queryTimeout,
		ExtendTimeout:         cfg.extendTimeout,
	}
	durable := func(st *shardState) ttserve.Config {
		c := front
		c.SnapshotDir, c.WAL, c.LoadedSnapshotPath = st.dir, st.log, st.snapPath
		return c
	}
	if len(states) == 1 {
		return ttserve.NewServer(states[0].eng, durable(states[0])), nil
	}
	engines := make([]*pathhist.Engine, len(states))
	shards := make([]*ttserve.Shard, len(states))
	for k, st := range states {
		engines[k] = st.eng
		shards[k] = ttserve.NewShard(st.eng, durable(st))
	}
	cluster, err := sharded.New(g, engines, sharded.Config{Opts: opts})
	if err != nil {
		return nil, err
	}
	return ttserve.NewShardedServer(cluster, shards, front)
}
