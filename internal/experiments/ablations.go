package experiments

import (
	"fmt"

	"pathhist/internal/metrics"
	"pathhist/internal/network"
	"pathhist/internal/query"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name       string
	SMAPE      float64
	WeightedE  float64
	LogL       float64
	AvgSubLen  float64
	MsPerQuery float64
}

// runNamedCell evaluates one explicit engine config over the query set.
func (env *Env) runNamedCell(name string, qt QueryType, cfg query.Config, beta int) AblationRow {
	ix := env.Index(0)
	eng := query.NewEngine(ix, cfg)
	g := env.DS.G
	var row AblationRow
	row.Name = name
	n := float64(len(env.Queries))
	if n == 0 {
		return row
	}
	var elapsedMs float64
	for _, q := range env.Queries {
		res := eng.TripQuery(SPQFor(q, qt, beta))
		elapsedMs += float64(res.Elapsed.Microseconds()) / 1000
		row.SMAPE += metrics.SMAPETerm(res.PredictedMean(), float64(q.Actual))
		actuals := subActuals(q, res.Subs)
		total := g.PathLength(q.Path)
		for i := range res.Subs {
			w := g.PathLength(res.Subs[i].Path) / total
			row.WeightedE += metrics.WeightedErrorTerm(w, res.Subs[i].MeanX(), float64(actuals[i]))
		}
		row.LogL += res.Hist.LogLikelihood(int(q.Actual), Gamma, LogLTmin, LogLTmax)
		row.AvgSubLen += res.AvgSubPathLen()
	}
	row.SMAPE /= n
	row.WeightedE /= n
	row.LogL /= n
	row.AvgSubLen /= n
	row.MsPerQuery = elapsedMs / n
	return row
}

// RunZoneBetaAblation evaluates the paper's outlook extension: per-zone β
// requirements (smaller sample sizes in rural zones) against the uniform β.
func (env *Env) RunZoneBetaAblation(beta int) []AblationRow {
	base := query.Config{Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10}
	relaxedRural := base
	relaxedRural.ZoneBetas = map[network.Zone]int{
		network.ZoneRural:       beta / 2,
		network.ZoneSummerHouse: beta / 2,
	}
	relaxedCity := base
	relaxedCity.ZoneBetas = map[network.Zone]int{
		network.ZoneCity:      beta / 2,
		network.ZoneAmbiguous: beta / 2,
	}
	return []AblationRow{
		env.runNamedCell(fmt.Sprintf("uniform beta=%d", beta), TemporalFilters, base, beta),
		env.runNamedCell(fmt.Sprintf("rural beta=%d", beta/2), TemporalFilters, relaxedRural, beta),
		env.runNamedCell(fmt.Sprintf("city beta=%d", beta/2), TemporalFilters, relaxedCity, beta),
	}
}

// RunShiftEnlargeAblation evaluates the Dai-et-al interval adaptation
// (Section 4.2) against plain per-sub-query windows.
func (env *Env) RunShiftEnlargeAblation(beta int) []AblationRow {
	on := query.Config{Partitioner: query.Partitioner{Kind: query.ZoneKind}, BucketWidth: 10}
	off := on
	off.DisableShiftEnlarge = true
	return []AblationRow{
		env.runNamedCell("shift-and-enlarge on", TemporalFilters, on, beta),
		env.runNamedCell("shift-and-enlarge off", TemporalFilters, off, beta),
	}
}

// RunSplitterAblation isolates σR vs σL on the πN partitioning where the
// splitter does all the work.
func (env *Env) RunSplitterAblation(beta int) []AblationRow {
	r := query.Config{Partitioner: query.Partitioner{Kind: query.None}, Splitter: query.SigmaR, BucketWidth: 10}
	l := r
	l.Splitter = query.SigmaL
	return []AblationRow{
		env.runNamedCell("piN/sigmaR", TemporalFilters, r, beta),
		env.runNamedCell("piN/sigmaL", TemporalFilters, l, beta),
	}
}

// FormatAblation renders ablation rows.
func FormatAblation(rows []AblationRow) string {
	out := fmt.Sprintf("%-24s%10s%10s%10s%10s%12s\n",
		"config", "sMAPE", "wErr", "logL", "subLen", "ms/query")
	for _, r := range rows {
		out += fmt.Sprintf("%-24s%10.2f%10.2f%10.2f%10.2f%12.2f\n",
			r.Name, r.SMAPE, r.WeightedE, r.LogL, r.AvgSubLen, r.MsPerQuery)
	}
	return out
}
