// Command ttquery loads a dataset produced by ttgen, builds the SNT-index
// and answers travel-time queries. Without an explicit path it samples a
// random indexed trajectory and queries its path, printing the resulting
// histogram as an ASCII bar chart together with the ground truth.
//
// Usage:
//
//	ttquery -data data/                          # random trajectory path
//	ttquery -data data/ -path 17,42,43,44 -tod 08:15 -beta 20
//	ttquery -data data/ -user 12 -partition mdm  # user-filtered query
//	ttquery -data data/ -extends 32 -compact     # simulate live ingestion,
//	                                             # then merge the partitions
//	ttquery -data data/ -save index.snt          # persist the built index
//	ttquery -data data/ -load index.snt          # restore it instead of
//	                                             # rebuilding (restart demo)
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pathhist"
	"pathhist/internal/gps"
	"pathhist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttquery: ")
	var (
		data      = flag.String("data", "data", "dataset directory (from ttgen)")
		pathArg   = flag.String("path", "", "comma-separated directed edge ids; empty = sample a trajectory")
		tod       = flag.String("tod", "", "periodic window centre as HH:MM; empty = fixed interval over all data")
		window    = flag.Int64("window", 900, "periodic window width in seconds")
		beta      = flag.Int("beta", 20, "required sample size per sub-query")
		user      = flag.Int("user", -1, "restrict to one driver id (-1 = all)")
		partition = flag.String("partition", "zone", "partitioning: zone, category, zonecategory, none, mdm, segment")
		seed      = flag.Int64("seed", 1, "seed for trajectory sampling")
		extends   = flag.Int("extends", 0,
			"ingest the newest part of the dataset through this many live Extend batches instead of the initial build")
		compact = flag.Bool("compact", false, "compact the partitions after the simulated ingestion")
		save    = flag.String("save", "", "write a snapshot of the built index to this file (atomic) before querying")
		load    = flag.String("load", "", "restore the index from this snapshot file instead of building it")
		mmap    = flag.Bool("mmap", false, "with -load: memory-map the snapshot read-only instead of copying it onto the heap (DESIGN.md §15)")
	)
	flag.Parse()

	g, store, err := loadDataset(*data)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d edges, %d trajectories", g.NumEdges(), store.Len())

	opts := pathhist.Options{}
	switch *partition {
	case "zone":
		opts.Partition = pathhist.ByZone
	case "category":
		opts.Partition = pathhist.ByCategory
	case "zonecategory":
		opts.Partition = pathhist.ByZoneAndCategory
	case "none":
		opts.Partition = pathhist.NoPartition
	case "mdm":
		opts.Partition = pathhist.MainRoadUserFilters
	case "segment":
		opts.Partition = pathhist.EverySegment
	default:
		log.Fatalf("unknown partitioning %q", *partition)
	}
	if *load != "" && (*extends > 0 || *compact) {
		log.Fatal("-load restores a finished index; it cannot be combined with -extends/-compact (snapshot the extended index with -save instead)")
	}
	if *mmap && *load == "" {
		log.Fatal("-mmap only applies to the -load restore path")
	}
	var eng *pathhist.Engine
	if *load != "" {
		// The restart-persistence demo: restore a serving-ready engine from
		// a snapshot instead of rebuilding suffix arrays and temporal columns.
		started := time.Now()
		how := "copied"
		if *mmap {
			eng, err = pathhist.LoadSnapshotFileMapped(g, *load, opts)
			how = "mapped read-only"
		} else {
			eng, err = pathhist.LoadSnapshotFile(g, *load, opts)
		}
		if err != nil {
			log.Fatalf("loading snapshot: %v", err)
		}
		log.Printf("restored %s from %s (%s) in %v (epoch %d)", eng.IndexInfo(), *load, how, time.Since(started), eng.Epoch())
	} else {
		started := time.Now()
		eng, err = buildEngine(g, store, opts, *extends, *compact)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("built %s in %v", eng.IndexInfo(), time.Since(started))
	}
	if *save != "" {
		st, err := eng.SnapshotFile(*save)
		if err != nil {
			log.Fatalf("saving snapshot: %v", err)
		}
		log.Printf("saved snapshot to %s (%d bytes, epoch %d); restore with -load %s",
			*save, st.Bytes, st.Epoch, *save)
	}

	q := pathhist.Query{Beta: *beta}
	var groundTruth int64 = -1
	if *pathArg != "" {
		for _, tok := range strings.Split(*pathArg, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				log.Fatalf("bad edge id %q", tok)
			}
			q.Path = append(q.Path, pathhist.EdgeID(id))
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		tr := store.Get(pathhist.TrajID(rng.Intn(store.Len())))
		q.Path = tr.Path()
		q.Exclude = true
		q.ExcludeTraj = tr.ID
		groundTruth = tr.TotalDuration()
		if *tod == "" {
			q.Periodic = true
			q.Around = tr.StartTime()
			q.WindowSeconds = *window
		}
		fmt.Printf("sampled trajectory %d (driver %d, %d segments, true travel time %d s, departs %s)\n",
			tr.ID, tr.User, tr.Len(), groundTruth, fmtTod(gps.TimeOfDay(tr.StartTime())))
	}
	if *tod != "" {
		parts := strings.SplitN(*tod, ":", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -tod %q, want HH:MM", *tod)
		}
		hh, err1 := strconv.Atoi(parts[0])
		mm, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || hh < 0 || hh > 23 || mm < 0 || mm > 59 {
			log.Fatalf("bad -tod %q", *tod)
		}
		q.Periodic = true
		q.Around = int64(hh*3600 + mm*60)
		q.WindowSeconds = *window
	}
	if *user >= 0 {
		q.FilterUser = true
		q.User = pathhist.UserID(*user)
	}

	res, err := eng.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res, groundTruth)
}

// buildEngine indexes the dataset. With extends > 0 it simulates live
// ingestion: the oldest portion is indexed up front and the rest arrives
// through Extend batches cut at quiescent boundaries (each batch starts
// after everything before it has ended — the Extend precondition), leaving
// one temporal partition per batch. With compact set the fragmented
// partitions are merged afterwards, demonstrating the compaction subsystem.
func buildEngine(g *pathhist.Graph, store *pathhist.Store, opts pathhist.Options, extends int, compact bool) (*pathhist.Engine, error) {
	if extends <= 0 {
		return pathhist.NewEngine(g, store, opts)
	}
	// Keep roughly half as the base, spread the requested batches over the
	// newest half's quiescent boundaries (sorts the store as a side effect).
	cuts := workload.IngestionCuts(store, extends)
	if cuts == nil {
		return nil, fmt.Errorf("dataset has too few quiescent boundaries to simulate %d extends", extends)
	}
	eng, err := pathhist.NewEngine(g, store.Slice(0, cuts[0]), opts)
	if err != nil {
		return nil, err
	}
	for b := 0; b < len(cuts); b++ {
		hi := store.Len()
		if b+1 < len(cuts) {
			hi = cuts[b+1]
		}
		if _, err := eng.Extend(store.Slice(cuts[b], hi)); err != nil {
			return nil, fmt.Errorf("extend batch %d: %w", b, err)
		}
	}
	log.Printf("after %d extends: %s", len(cuts), eng.IndexInfo())
	if compact {
		st, err := eng.Compact()
		if err != nil {
			return nil, err
		}
		log.Printf("compacted %d partitions into %d (%d runs, %d records rebuilt) in %v: %s",
			st.PartitionsBefore, st.PartitionsAfter, st.Runs, st.RecordsRebuilt, st.Elapsed, eng.IndexInfo())
	}
	return eng, nil
}

func loadDataset(dir string) (*pathhist.Graph, *pathhist.Store, error) {
	nf, err := os.Open(filepath.Join(dir, "network.bin"))
	if err != nil {
		return nil, nil, fmt.Errorf("open network (run ttgen first?): %w", err)
	}
	defer nf.Close()
	g, err := pathhist.ReadGraph(nf)
	if err != nil {
		return nil, nil, err
	}
	tf, err := os.Open(filepath.Join(dir, "trajectories.bin"))
	if err != nil {
		return nil, nil, fmt.Errorf("open trajectories: %w", err)
	}
	defer tf.Close()
	store, err := pathhist.ReadStore(tf)
	if err != nil {
		return nil, nil, err
	}
	return g, store, nil
}

func fmtTod(tod int64) string {
	return fmt.Sprintf("%02d:%02d", tod/3600, tod%3600/60)
}

func printResult(res *pathhist.Result, groundTruth int64) {
	fmt.Printf("\npredicted mean travel time: %.1f s", res.MeanSeconds)
	if groundTruth >= 0 {
		fmt.Printf("   (ground truth %d s)", groundTruth)
	}
	fmt.Println()
	h := res.Histogram
	fmt.Printf("distribution: p05=%.0fs  p50=%.0fs  p95=%.0fs\n",
		h.Quantile(0.05), h.Quantile(0.5), h.Quantile(0.95))
	cacheNote := ""
	if res.FullCacheHit {
		cacheNote = ", served from full-result cache"
	}
	fmt.Printf("%d sub-queries (index scans %d, estimator skips %d, cache %d/%d hit/miss%s):\n",
		len(res.Subs), res.IndexScans, res.EstimatorSkips, res.CacheHits, res.CacheMisses, cacheNote)
	for i, s := range res.Subs {
		note := ""
		if s.Fallback {
			note = "  [speed-limit fallback]"
		}
		fmt.Printf("  %2d: %3d segments, %3d samples, mean %7.1f s%s\n",
			i+1, len(s.Path), s.Samples, s.MeanTT, note)
	}
	// ASCII histogram between p01 and p99.
	lo := int(h.Quantile(0.01))
	hi := int(h.Quantile(0.99)) + h.BucketWidth()
	width := h.BucketWidth()
	maxMass := 0.0
	for b := lo / width * width; b < hi; b += width {
		if m := h.Count(b); m > maxMass {
			maxMass = m
		}
	}
	if maxMass == 0 {
		return
	}
	fmt.Println("\ntravel-time histogram:")
	for b := lo / width * width; b < hi; b += width {
		m := h.Count(b)
		bar := strings.Repeat("#", int(m/maxMass*50))
		fmt.Printf("  %5d-%5ds |%-50s| %.0f\n", b, b+width, bar, m)
	}
}
