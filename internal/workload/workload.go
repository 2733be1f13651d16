// Package workload builds the evaluation setting of Section 5: a synthetic
// substitute for the ITSP data (a road network with zones, a driver
// population with commuting patterns, and trips simulated with congestion,
// driver heterogeneity and turn delays) plus the query-set derivation of
// Section 5.2 (a random sample of trajectories after the median timestamp,
// queried with periodic, user-filtered, or fixed temporal predicates).
package workload

import (
	"math/rand"

	"pathhist/internal/gps"
	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/zoning"
)

// Config parameterises dataset generation.
type Config struct {
	Seed      int64
	Net       network.GenConfig
	Drivers   int
	Days      int
	StartUnix int64 // dataset epoch (the ITSP data starts 2012-05-01)
	// TargetTrips steers the activity probability so the expected number
	// of trips is roughly this.
	TargetTrips int
}

// StartUnix2012 is 2012-05-01 00:00:00 UTC, the ITSP collection start.
const StartUnix2012 int64 = 1335830400

// DefaultConfig is the full-scale configuration used by cmd/ttbench
// (laptop-scale stand-in for the paper's 1.4M-trajectory dataset).
func DefaultConfig() Config {
	return Config{
		Seed:        42,
		Net:         network.DefaultGenConfig(),
		Drivers:     458, // as in the ITSP platform
		Days:        420,
		StartUnix:   StartUnix2012,
		TargetTrips: 60000,
	}
}

// SmallConfig is the scaled-down configuration used by tests and
// go-test benchmarks.
func SmallConfig() Config {
	net := network.DefaultGenConfig()
	net.Cities = 4
	net.GridSize = 6
	net.SummerAreas = 2
	return Config{
		Seed:        42,
		Net:         net,
		Drivers:     60,
		Days:        90,
		StartUnix:   StartUnix2012,
		TargetTrips: 4000,
	}
}

// Dataset is a generated evaluation dataset.
type Dataset struct {
	Cfg     Config
	G       *network.Graph
	Gen     *network.GenResult
	Store   *traj.Store
	Drivers []gps.Driver
}

// driverPlan holds a driver's cached routes and habitual departure times.
// Departure-time diversity across drivers is what makes time-of-day
// predicates informative: segments shared by early and late commuters see
// systematically different congestion.
type driverPlan struct {
	commuteOut  network.Path
	commuteBack network.Path
	errands     []network.Path
	outMu       float64 // habitual morning departure, seconds of day
	backMu      float64 // habitual return departure
}

// BuildDataset generates the network, zones, drivers and trips.
func BuildDataset(cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := network.Generate(cfg.Net)
	g := res.Graph
	zoning.FromGenResult(res, cfg.Net.GridSpacing*0.9).Assign(g)
	drivers := gps.NewDrivers(cfg.Drivers, rng)
	router := network.NewRouter(g)
	sim := gps.NewSimulator(g, rng)

	// Per-driver plans: home and work in different cities (commuting over
	// main roads drives the πMDM story), plus a pool of errand routes.
	plans := make([]driverPlan, cfg.Drivers)
	randomVertex := func(city int) network.VertexID {
		vs := res.CityVertices[city]
		return vs[rng.Intn(len(vs))]
	}
	for i := range plans {
		homeCity := rng.Intn(cfg.Net.Cities)
		workCity := rng.Intn(cfg.Net.Cities)
		for workCity == homeCity {
			workCity = rng.Intn(cfg.Net.Cities)
		}
		home := randomVertex(homeCity)
		work := randomVertex(workCity)
		plans[i].commuteOut = router.Route(home, work)
		plans[i].commuteBack = router.Route(work, home)
		plans[i].outMu = 7*3600 + rng.Float64()*2.5*3600   // 07:00..09:30
		plans[i].backMu = 15*3600 + rng.Float64()*3.0*3600 // 15:00..18:00
		for e := 0; e < 3; e++ {
			from := randomVertex(rng.Intn(cfg.Net.Cities))
			to := randomVertex(rng.Intn(cfg.Net.Cities))
			if p := router.Route(from, to); len(p) >= 3 {
				plans[i].errands = append(plans[i].errands, p)
			}
		}
	}

	// Activity probability so that expected trips ≈ TargetTrips. A
	// commuting weekday contributes ~2.3 trips, an active weekend day ~1.
	expectedPerDriverDay := 2.3*5.0/7.0 + 0.5*1.0*2.0/7.0
	pActive := float64(cfg.TargetTrips) / (float64(cfg.Drivers) * float64(cfg.Days) * expectedPerDriverDay)
	if pActive > 0.98 {
		pActive = 0.98
	}

	store := traj.NewStore()
	addTrip := func(p network.Path, depart int64, d *gps.Driver) {
		if len(p) == 0 {
			return
		}
		// Quantise departures to the minute, as in the ITSP records.
		depart = depart / 60 * 60
		entries := sim.SimulateTraversal(p, depart, d)
		// The simulator produces contiguous trips; gap splitting is a
		// no-op here but applied for fidelity with the preprocessing.
		for _, part := range traj.SplitGaps(entries, traj.MaxGap) {
			if len(part) > 0 {
				store.Add(d.ID, part)
			}
		}
	}
	normal := func(mu, sigma, lo, hi float64) int64 {
		x := mu + rng.NormFloat64()*sigma
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		return int64(x)
	}
	for day := 0; day < cfg.Days; day++ {
		dayStart := cfg.StartUnix + int64(day)*gps.Day
		weekend := gps.IsWeekend(dayStart)
		for di := range drivers {
			d := &drivers[di]
			pl := &plans[di]
			if weekend {
				if rng.Float64() < pActive*0.5 && len(pl.errands) > 0 {
					dep := dayStart + normal(13*3600, 2.5*3600, 8*3600, 20*3600)
					addTrip(pl.errands[rng.Intn(len(pl.errands))], dep, d)
				}
				continue
			}
			if rng.Float64() >= pActive {
				continue
			}
			out := dayStart + normal(pl.outMu, 0.2*3600, 6*3600, 10.5*3600)
			back := dayStart + normal(pl.backMu, 0.25*3600, 14*3600, 19.5*3600)
			addTrip(pl.commuteOut, out, d)
			addTrip(pl.commuteBack, back, d)
			if rng.Float64() < 0.3 && len(pl.errands) > 0 {
				dep := dayStart + normal(12*3600, 1.5*3600, 10*3600, 21*3600)
				addTrip(pl.errands[rng.Intn(len(pl.errands))], dep, d)
			}
		}
	}
	store.SortByStart()
	return &Dataset{Cfg: cfg, G: g, Gen: res, Store: store, Drivers: drivers}
}

// Query is one evaluation query derived from an indexed trajectory
// (Section 5.2): the trajectory's own path, start time, user, and ground
// truth travel times.
type Query struct {
	Traj    traj.ID
	User    traj.UserID
	Path    network.Path
	T0      int64
	Actual  int64        // a_tri: the trajectory's true travel time
	Entries []traj.Entry // per-segment ground truth for the weighted error
}

// MakeQueries derives the query set: a random fraction of the trajectories
// that start after the median timestamp (ensuring ample history) and have
// at least minLen segments.
func (d *Dataset) MakeQueries(frac float64, minLen int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	median := d.Store.MedianStart()
	var out []Query
	for i := 0; i < d.Store.Len(); i++ {
		tr := d.Store.Get(traj.ID(i))
		if tr.StartTime() <= median || tr.Len() < minLen {
			continue
		}
		if rng.Float64() >= frac {
			continue
		}
		out = append(out, Query{
			Traj:    tr.ID,
			User:    tr.User,
			Path:    tr.Path(),
			T0:      tr.StartTime(),
			Actual:  tr.TotalDuration(),
			Entries: tr.Seq,
		})
	}
	return out
}

// AvgQueryStats summarises a query set (the paper reports 13.7 km, 55
// segments, 800 s averages).
func (d *Dataset) AvgQueryStats(qs []Query) (km float64, segments float64, seconds float64) {
	if len(qs) == 0 {
		return 0, 0, 0
	}
	for _, q := range qs {
		km += d.G.PathLength(q.Path) / 1000
		segments += float64(len(q.Path))
		seconds += float64(q.Actual)
	}
	n := float64(len(qs))
	return km / n, segments / n, seconds / n
}

// IngestionCuts picks up to nBatches quiescent split points in the newest
// half of a store (sorting it as a side effect): the resulting batches
// each start strictly after everything before them has ended — the Extend
// precondition — and are spread evenly over the available boundaries. nil
// means the store has too few boundaries to split at all.
func IngestionCuts(s *traj.Store, nBatches int) []int {
	cuts := s.QuiescentCuts()
	if len(cuts) < 2 {
		return nil
	}
	tail := cuts[len(cuts)/2:]
	if nBatches < len(tail) {
		stride := len(tail) / nBatches
		picked := make([]int, 0, nBatches)
		for i := 0; i < len(tail) && len(picked) < nBatches; i += stride {
			picked = append(picked, tail[i])
		}
		tail = picked
	}
	return tail
}
