package experiments

import (
	"fmt"
	"sort"
	"time"

	"pathhist/internal/card"
	"pathhist/internal/hist"
	"pathhist/internal/metrics"
	"pathhist/internal/query"
	"pathhist/internal/treeforest"
)

// DefaultPartitionDays is the Figure 10/11 partition-size sweep: 7, 30, 90,
// 365 days, and 0 for the single FULL partition.
var DefaultPartitionDays = []int{7, 30, 90, 365, 0}

// partLabel names a partition size like the paper's x-axes.
func partLabel(days int) string {
	if days == 0 {
		return "FULL"
	}
	return fmt.Sprintf("%d", days)
}

// MemoryRow is one bar group of Figure 10a plus the setup time of 10c.
// ForestMiB is the modelled size of the paper's tree layout of the row's
// kind, rebuilt from the served columns (treeforest.FromFrozen), and
// TreeBuildSeconds the time that rebuild took; FrozenMiB is the columnar
// layout the index actually builds and serves.
type MemoryRow struct {
	Label            string // partition size or "BT"
	Partitions       int
	CMiB             float64
	WTMiB            float64
	UserMiB          float64
	ForestMiB        float64
	TreeBuildSeconds float64
	FrozenMiB        float64
	TotalMiB         float64
	SetupSeconds     float64
}

const mib = 1024 * 1024

// RunMemory reproduces Figures 10a and 10c: index memory by component and
// setup time for each partition size (CSS forest), plus the B+-tree forest
// variant on a single partition ("BT").
func (env *Env) RunMemory(partDays []int) []MemoryRow {
	var rows []MemoryRow
	emit := func(label string, kind treeforest.Kind, days int) {
		ix := env.Index(days)
		m := ix.Memory()
		payload := treeforest.PayloadBytes
		if ix.NumPartitions() == 1 {
			payload = treeforest.PayloadBytesNoPartition
		}
		startedAt := time.Now()
		forest := treeforest.FromFrozen(ix.Frozen(), kind)
		treeBuild := time.Since(startedAt)
		rows = append(rows, MemoryRow{
			Label:            label,
			Partitions:       ix.NumPartitions(),
			CMiB:             float64(m.CBytes) / mib,
			WTMiB:            float64(m.WTBytes) / mib,
			UserMiB:          float64(m.UserBytes) / mib,
			ForestMiB:        float64(forest.SizeBytes(payload)) / mib,
			TreeBuildSeconds: treeBuild.Seconds(),
			FrozenMiB:        float64(m.ForestBytes) / mib,
			TotalMiB:         float64(m.Total()) / mib,
			SetupSeconds:     ix.Stats().SetupTime.Seconds(),
		})
	}
	for _, d := range partDays {
		emit(partLabel(d), treeforest.CSS, d)
	}
	emit("BT", treeforest.BPlus, 0)
	return rows
}

// TodMemoryRow is one point of Figure 10b.
type TodMemoryRow struct {
	Label         string
	BucketMinutes int
	MiB           float64
}

// RunTodMemory reproduces Figure 10b: time-of-day histogram memory per
// partition size for bucket widths of 1, 5 and 10 minutes. The index stores
// no histograms; each width is derived from the partition size's index and
// measured as the estimator would hold it.
func (env *Env) RunTodMemory(partDays []int, bucketMinutes []int) []TodMemoryRow {
	var rows []TodMemoryRow
	for _, d := range partDays {
		ix := env.Index(d)
		for _, bm := range bucketMinutes {
			rows = append(rows, TodMemoryRow{
				Label:         partLabel(d),
				BucketMinutes: bm,
				MiB:           float64(TodBytes(ix.TodHistograms(bm*60))) / mib,
			})
		}
	}
	return rows
}

// TodBytes is the modelled memory of a set of time-of-day histograms.
func TodBytes(hs [][]*hist.TodHistogram) int {
	n := 0
	for _, per := range hs {
		for _, h := range per {
			if h != nil {
				n += h.SizeBytes()
			}
		}
	}
	return n
}

// QErrorRow is one box of Figure 11a.
type QErrorRow struct {
	Mode        string
	SubQueries  int
	MeanLog10   float64
	MedianLog10 float64
	P90Log10    float64
}

// RunQError reproduces Figure 11a: the q-error of the five estimator modes
// over sub-queries derived with πZ, σR and β=20 (Section 6.4 runs 5,000).
func (env *Env) RunQError(maxSubQueries int) []QErrorRow {
	// Derive sub-queries from the query set with πZ.
	ix := env.Index(0)
	pt := query.Partitioner{Kind: query.ZoneKind}
	var subs []query.SPQ
	for _, q := range env.Queries {
		spq := SPQFor(q, TemporalFilters, 20)
		subs = append(subs, pt.Partition(env.DS.G, spq)...)
		if len(subs) >= maxSubQueries {
			subs = subs[:maxSubQueries]
			break
		}
	}
	var rows []QErrorRow
	for _, mode := range []card.Mode{card.ISA, card.BTFast, card.CSSFast, card.BTAcc, card.CSSAcc} {
		est := card.New(ix, mode)
		var logQs []float64
		for _, s := range subs {
			bhat, ok := est.Estimate(s.Path, s.Interval, s.Filter)
			if !ok {
				continue
			}
			actual := float64(ix.CountMatches(s.Path, s.Interval, s.Filter, 0))
			logQs = append(logQs, metrics.Log10(metrics.QError(bhat, actual)))
		}
		rows = append(rows, QErrorRow{
			Mode:        mode.String(),
			SubQueries:  len(logQs),
			MeanLog10:   metrics.Mean(logQs),
			MedianLog10: metrics.Percentile(logQs, 50),
			P90Log10:    metrics.Percentile(logQs, 90),
		})
	}
	return rows
}

// EstimatorRuntimeRow is one line point of Figures 11b and 11c.
type EstimatorRuntimeRow struct {
	Label      string // partition size
	Config     string // CSS, CSS-Fast, CSS-Acc, BT, BT-Fast, BT-Acc, ISA
	MsPerQuery float64
	SMAPE      float64
}

// RunEstimatorSweep reproduces Figures 11b and 11c: query runtime and
// accuracy for each of the paper's tree/estimator pairings across partition
// sizes, with πZ, σR and β=20 (Section 6.4). The CSS-* and BT-* rows run on
// the same index — the pairings differ only in the estimator's formulas,
// which is what the paper compares — so "BT" repeats "CSS" as a noise row.
func (env *Env) RunEstimatorSweep(partDays []int) []EstimatorRuntimeRow {
	type cfg struct {
		name string
		mode card.Mode
	}
	cfgs := []cfg{
		{"CSS", card.Off},
		{"CSS-Fast", card.CSSFast},
		{"CSS-Acc", card.CSSAcc},
		{"BT", card.Off},
		{"BT-Fast", card.BTFast},
		{"BT-Acc", card.BTAcc},
		{"ISA", card.ISA},
	}
	pt := query.Partitioner{Kind: query.ZoneKind}
	var rows []EstimatorRuntimeRow
	for _, days := range partDays {
		for _, c := range cfgs {
			ix := env.Index(days)
			var est *card.Estimator
			if c.mode != card.Off {
				est = card.New(ix, c.mode)
			}
			p := env.RunCell(ix, TemporalFilters, pt, query.SigmaR, 20, est)
			rows = append(rows, EstimatorRuntimeRow{
				Label:      partLabel(days),
				Config:     c.name,
				MsPerQuery: p.MsPerQuery,
				SMAPE:      p.SMAPE,
			})
		}
	}
	return rows
}

// FormatMemory renders Figure 10a/10c rows.
func FormatMemory(rows []MemoryRow) string {
	out := fmt.Sprintf("%-8s%12s%12s%12s%12s%12s%14s%12s%12s%10s\n",
		"part", "partitions", "C MiB", "WT MiB", "user MiB", "tree MiB", "tree build s", "frozen MiB", "total MiB", "setup s")
	for _, r := range rows {
		out += fmt.Sprintf("%-8s%12d%12.2f%12.2f%12.2f%12.2f%14.3f%12.2f%12.2f%10.2f\n",
			r.Label, r.Partitions, r.CMiB, r.WTMiB, r.UserMiB, r.ForestMiB, r.TreeBuildSeconds, r.FrozenMiB, r.TotalMiB, r.SetupSeconds)
	}
	return out
}

// FormatTodMemory renders Figure 10b rows.
func FormatTodMemory(rows []TodMemoryRow) string {
	out := fmt.Sprintf("%-8s%14s%12s\n", "part", "bucket (min)", "MiB")
	for _, r := range rows {
		out += fmt.Sprintf("%-8s%14d%12.2f\n", r.Label, r.BucketMinutes, r.MiB)
	}
	return out
}

// FormatQError renders Figure 11a rows.
func FormatQError(rows []QErrorRow) string {
	out := fmt.Sprintf("%-10s%12s%14s%14s%14s\n", "mode", "subqueries", "mean log10q", "med log10q", "p90 log10q")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s%12d%14.3f%14.3f%14.3f\n",
			r.Mode, r.SubQueries, r.MeanLog10, r.MedianLog10, r.P90Log10)
	}
	return out
}

// FormatEstimatorSweep renders Figure 11b/11c rows grouped by config.
func FormatEstimatorSweep(rows []EstimatorRuntimeRow, metric func(EstimatorRuntimeRow) float64, name string) string {
	labels := []string{}
	seenL := map[string]bool{}
	configs := []string{}
	seenC := map[string]bool{}
	vals := map[string]map[string]float64{}
	for _, r := range rows {
		if !seenL[r.Label] {
			seenL[r.Label] = true
			labels = append(labels, r.Label)
		}
		if !seenC[r.Config] {
			seenC[r.Config] = true
			configs = append(configs, r.Config)
		}
		if vals[r.Config] == nil {
			vals[r.Config] = map[string]float64{}
		}
		vals[r.Config][r.Label] = metric(r)
	}
	sort.Strings(configs)
	out := fmt.Sprintf("%-10s", name+" \\ part")
	for _, l := range labels {
		out += fmt.Sprintf("%10s", l)
	}
	out += "\n"
	for _, c := range configs {
		out += fmt.Sprintf("%-10s", c)
		for _, l := range labels {
			out += fmt.Sprintf("%10.2f", vals[c][l])
		}
		out += "\n"
	}
	return out
}
