// Command bench is the repository's end-to-end benchmark: it generates a
// dataset and traffic from a seed, builds and runs the real cmd/ttserve,
// drives it over loopback HTTP, checks the answers and prints every metric
// by name. README.md in this directory describes the workloads and metrics;
// BENCHMARK.json at the repository root is the driver's view of them.
//
//	sh bench/run.sh --workload route_cold --seed 42 --seconds 10 --trace 0
//	sh bench/run.sh --workload route_cold --seed 42 --seconds 10 --trace 1
//	sh bench/run.sh --aa 2            # two sets of ten runs per workload, compared
//
// The last line of standard output of a single-workload run is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	var p params
	var traceFlag, aa int
	flag.StringVar(&p.workload, "workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&p.seed, "seed", 42, "seed of the dataset, the requests and the ingest batches")
	flag.IntVar(&p.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics from the in-process replay and the server's own counters")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run this many sets of ten runs per workload on the same tree, one seed each from -seed up, and compare them")
	flag.Parse()
	p.trace = traceFlag != 0
	if flag.NArg() > 0 || p.seconds < 1 || aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if p.workload != "all" {
		names = []string{p.workload}
		if !slices.Contains(workloadNames, p.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", p.workload)
			os.Exit(2)
		}
	}

	// SIGINT/SIGTERM cancel the run; every exit path below goes through the
	// deferred kills of the children.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lay, err := layoutAt("bench") // run.sh starts the benchmark in the checkout's root
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("# pathhist bench: seed=%d seconds=%d trace=%d %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		p.seed, p.seconds, traceFlag, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(lay))

	if aa > 0 {
		if !runAA(ctx, lay, p, names, aa) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		p.workload = name
		o, err := runWorkload(ctx, lay, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printOutcome(o, p.trace)
		ok = ok && o.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// commit names the measured tree when it is a git checkout.
func commit(lay layout) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = lay.module
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printOutcome writes a run's report: context, every metric by name with its
// unit, and as the last line the JSON object the driver reads.
func printOutcome(o *outcome, trace bool) {
	fmt.Printf("## %s\n", o.workload)
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, pr := range o.problems {
		fmt.Printf("# PROBLEM: %s\n", pr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	show := func(defs []metricDef, vals map[string]float64, report bool) {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
			if report {
				metrics[d.name] = value{v, d.unit}
			}
		}
	}
	show(endToEnd, o.e2e, !trace)
	show(ingestOnly, o.ingest, false)
	fmt.Printf("%-34s %14.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	show(perLayer, o.layer, trace)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, metrics})
	if err != nil {
		// Only a NaN or an infinity can fail here; neither is a measurement.
		fmt.Fprintf(os.Stderr, "bench: %s: unreportable metric: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// aaRuns is how many runs, one seed each, make a set in A/A mode: the
// driver's ten.
const aaRuns = 10

// runAA measures the same tree several times and holds the sets against each
// other with the benchmark's own bounds: within a set, the spread between
// the quartiles of each metric as a share of its median; between the first
// set and each later one, how much worse the median got. The sets are
// interleaved run by run, so that a slow quarter of an hour on the host
// falls on all of them alike. It reports every (metric, workload) pair and
// returns false if any exceeds its bound or any run was incorrect.
func runAA(ctx context.Context, lay layout, p params, names []string, sets int) bool {
	type key struct{ workload, metric string }
	samples := make([]map[key][]float64, sets)
	for s := range samples {
		samples[s] = map[key][]float64{}
	}
	ok := true
	for _, name := range names {
		for r := 0; r < aaRuns; r++ {
			for s := range samples {
				q := p
				q.workload, q.seed, q.trace = name, p.seed+int64(r), false
				o, err := runWorkload(ctx, lay, q)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, q.seed, err)
					return false
				}
				if !o.correct() {
					ok = false
					fmt.Printf("set %d %s seed %d: INCORRECT: %s\n", s+1, name, q.seed, strings.Join(o.problems, "; "))
				}
				for m, v := range o.e2e {
					samples[s][key{name, m}] = append(samples[s][key{name, m}], v)
				}
				for m, v := range o.ingest {
					samples[s][key{name, m}] = append(samples[s][key{name, m}], v)
				}
				fmt.Printf("set %d %s seed %d: p50 %.4f ms, p90 %.4f ms, %.1f 1/s, setup %.3f s, stolen %.1f %%\n", s+1, name, q.seed,
					o.e2e["query_p50_ms"], o.e2e["query_p90_ms"], o.e2e["query_rps"], o.e2e["setup_s"], 100*o.steal)
			}
		}
	}
	defs := append(append([]metricDef(nil), endToEnd...), ingestOnly...)
	fmt.Printf("\n%-14s %-24s %4s %12s %8s %8s %6s\n", "workload", "metric", "set", "median", "spread", "vs set 1", "bound")
	for _, name := range names {
		for _, d := range defs {
			first, have := samples[0][key{name, d.name}]
			if !have {
				continue
			}
			ref := median(first)
			for s := range samples {
				xs := samples[s][key{name, d.name}]
				q1, q3 := quartiles(xs)
				med := median(xs)
				spread := ratio(q3-q1, med)
				worse := ratio(med-ref, ref)
				if d.better == "higher" {
					worse = -worse
				}
				verdict := ""
				// setup_s is gated on its median only, as the driver does.
				if d.bound == 0 {
					fmt.Printf("%-14s %-24s %4d %12.4f %7.1f%% %+7.1f%%  none\n", name, d.name, s+1, med, 100*spread, 100*worse)
					continue
				}
				if spread > d.bound && d.name != "setup_s" {
					verdict, ok = " SPREAD", false
				}
				if worse > d.bound {
					verdict, ok = verdict+" WORSE", false
				}
				fmt.Printf("%-14s %-24s %4d %12.4f %7.1f%% %+7.1f%% %5.0f%%%s\n",
					name, d.name, s+1, med, 100*spread, 100*worse, 100*d.bound, verdict)
			}
		}
	}
	return ok
}
