// Command ttbench regenerates the paper's evaluation: every figure of
// Section 6 can be reproduced individually or in one run. Results are
// printed as aligned text tables whose rows/series correspond to the
// paper's plots (see EXPERIMENTS.md for the recorded comparison).
//
// Usage:
//
//	ttbench -experiment all -scale small
//	ttbench -experiment fig5,fig9 -scale full
//	ttbench -experiment fig11a -queries 200
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"pathhist/internal/experiments"
	"pathhist/internal/network"
	"pathhist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttbench: ")
	var (
		expArg = flag.String("experiment", "all", "comma-separated: table1,fig5,fig6,fig7,fig8,fig9,fig10a,fig10b,fig10c,fig11a,fig11b,fig11c,baselines,ablations,all")
		scale  = flag.String("scale", "small", "dataset scale: small, medium or full")
		seed   = flag.Int64("seed", 42, "master seed")
		frac   = flag.Float64("queryfrac", 0, "query sampling fraction (0 = scale default)")
		subQs  = flag.Int("subqueries", 5000, "sub-queries for fig11a")
		minLen = flag.Int("minlen", 5, "minimum query path length in segments")
	)
	flag.Parse()

	cfg := workload.SmallConfig()
	queryFrac := 0.10
	switch *scale {
	case "small":
	case "medium":
		cfg = workload.DefaultConfig()
		cfg.Days = 180
		cfg.TargetTrips = 25000
		queryFrac = 0.03
	case "full":
		cfg = workload.DefaultConfig()
		queryFrac = 0.01
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.Net.Seed = *seed
	if *frac > 0 {
		queryFrac = *frac
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expArg, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	start := time.Now()
	log.Printf("building dataset (%s scale, seed %d)...", *scale, *seed)
	env := experiments.NewEnv(cfg, queryFrac, *minLen)
	km, segs, secs := env.DS.AvgQueryStats(env.Queries)
	log.Printf("dataset: %d edges, %d trajectories, %d traversals",
		env.DS.G.NumEdges(), env.DS.Store.Len(), env.DS.Store.NumTraversals())
	log.Printf("query set: %d queries, avg %.1f km, %.1f segments, %.0f s (paper: 13.7 km, 55, 800 s)",
		len(env.Queries), km, segs, secs)

	if sel("table1") {
		runTable1()
	}
	if sel("baselines") || sel("fig5") || sel("fig6") {
		b := env.RunBaselines()
		fmt.Println("\n== Baselines (Section 6.1) ==")
		fmt.Printf("speed limits only:      sMAPE %6.2f%%   weighted error %6.2f%%   (paper: 34.3%% / 36.9%%)\n",
			b.SpeedLimitSMAPE, b.SpeedLimitWE)
		fmt.Printf("all data per segment:   sMAPE %6.2f%%   weighted error %6.2f%%   (paper: 13.8%% / 24.0%%)\n",
			b.SegmentAllSMAPE, b.SegmentAllWE)
	}

	needGrid := sel("fig5") || sel("fig6") || sel("fig7") || sel("fig8") || sel("fig9")
	if needGrid {
		for _, spec := range experiments.DefaultGrids() {
			log.Printf("running %s grid (%d cells)...", spec.QType,
				len(spec.Partitioners)*len(spec.Splitters)*len(spec.Betas))
			points := env.RunGrid(spec)
			if sel("fig5") {
				fmt.Printf("\n== Figure 5 (%s): sMAPE %% ==\n", spec.QType)
				fmt.Print(experiments.FormatGrid(points, func(p experiments.GridPoint) float64 { return p.SMAPE }, "sMAPE"))
			}
			if sel("fig6") {
				fmt.Printf("\n== Figure 6 (%s): weighted error %% ==\n", spec.QType)
				fmt.Print(experiments.FormatGrid(points, func(p experiments.GridPoint) float64 { return p.WeightedE }, "wErr"))
			}
			if sel("fig7") {
				fmt.Printf("\n== Figure 7 (%s): avg sub-query path length ==\n", spec.QType)
				fmt.Print(experiments.FormatGrid(points, func(p experiments.GridPoint) float64 { return p.AvgSubLen }, "len"))
			}
			if sel("fig8") {
				fmt.Printf("\n== Figure 8 (%s): avg log-likelihood ==\n", spec.QType)
				fmt.Print(experiments.FormatGrid(points, func(p experiments.GridPoint) float64 { return p.LogL }, "logL"))
			}
			if sel("fig9") {
				fmt.Printf("\n== Figure 9 (%s): ms per query ==\n", spec.QType)
				fmt.Print(experiments.FormatGrid(points, func(p experiments.GridPoint) float64 { return p.MsPerQuery }, "ms"))
			}
		}
	}

	if sel("fig10a") || sel("fig10c") {
		log.Print("running temporal partitioning memory/setup sweep...")
		rows := env.RunMemory(experiments.DefaultPartitionDays)
		fmt.Println("\n== Figure 10a/10c: index memory by component & setup time ==")
		fmt.Print(experiments.FormatMemory(rows))
	}
	if sel("fig10b") {
		log.Print("running time-of-day histogram memory sweep...")
		rows := env.RunTodMemory(experiments.DefaultPartitionDays, []int{1, 5, 10})
		fmt.Println("\n== Figure 10b: time-of-day histogram memory ==")
		fmt.Print(experiments.FormatTodMemory(rows))
	}
	if sel("fig11a") {
		log.Print("running cardinality estimator q-error...")
		rows := env.RunQError(*subQs)
		fmt.Println("\n== Figure 11a: estimator q-error (orders of magnitude) ==")
		fmt.Print(experiments.FormatQError(rows))
	}
	if sel("ablations") {
		log.Print("running design-choice ablations...")
		fmt.Println("\n== Ablation: per-zone beta (paper outlook) ==")
		fmt.Print(experiments.FormatAblation(env.RunZoneBetaAblation(20)))
		fmt.Println("\n== Ablation: shift-and-enlarge (Section 4.2) ==")
		fmt.Print(experiments.FormatAblation(env.RunShiftEnlargeAblation(20)))
		fmt.Println("\n== Ablation: splitting method on piN ==")
		fmt.Print(experiments.FormatAblation(env.RunSplitterAblation(20)))
	}
	if sel("fig11b") || sel("fig11c") {
		log.Print("running estimator runtime/accuracy sweep (builds several indexes)...")
		rows := env.RunEstimatorSweep(experiments.DefaultPartitionDays)
		if sel("fig11b") {
			fmt.Println("\n== Figure 11b: ms per query by estimator & partition size ==")
			fmt.Print(experiments.FormatEstimatorSweep(rows,
				func(r experiments.EstimatorRuntimeRow) float64 { return r.MsPerQuery }, "ms"))
		}
		if sel("fig11c") {
			fmt.Println("\n== Figure 11c: sMAPE by estimator & partition size ==")
			fmt.Print(experiments.FormatEstimatorSweep(rows,
				func(r experiments.EstimatorRuntimeRow) float64 { return r.SMAPE }, "sMAPE"))
		}
	}

	log.Printf("done in %s", time.Since(start).Round(time.Millisecond))
}

// runTable1 prints the estimateTT example of Table 1.
func runTable1() {
	g, ids := network.PaperExample()
	fmt.Println("\n== Table 1: example network F and estimateTT ==")
	fmt.Printf("%-3s%-11s%-7s%5s%7s%13s\n", "e", "c", "z", "sl", "l", "estimateTT")
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		e := g.Edge(ids[name])
		fmt.Printf("%-3s%-11s%-7s%5.0f%7.0f%12.1fs\n",
			name, e.Cat.String(), e.Zone.String(), e.SpeedLimit, e.Length,
			g.EstimateTT(ids[name]))
	}
}
