package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"pathhist"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// Fixed shape of the generated traffic: the issue's request mix. A request
// is a contiguous sub-path of an indexed trajectory, any length from
// minSegments up, a time of day uniform over the day's minutes, two window
// widths, two sample-size requirements, a fifth of the requests filtered by
// the trajectory's own driver. Nearly two fifths of the requests therefore ask
// about hours in which nobody drives, find no data in any window and fall
// back to all traversals of every segment: the dearest path through the
// engine, and the one that sets the mean and the tail.
const (
	minSegments  = 5
	hotPoolSize  = 512  // fits the 1 024-entry full-result cache
	mixPoolSize  = 4096 // the ingest_mixed reader's pool: four times that cache
	zipfS        = 1.1  // popularity P(k) ∝ k^-zipfS of route_hot and the ingest_mixed reader
	baseShare    = 0.8  // ingest_mixed indexes this share up front and ingests the rest
	warmRequests = 32   // untimed requests that open connections and fill pools

	// maxLogMass keeps the generator off the one input the server is known
	// to fail on, because the benchmark's contract wants workloads on which
	// no operation fails. When no window holds data every segment falls back
	// to all of its traversals, the convolved histogram's mass is the
	// product of the sample counts, and past 1.8e308 it is +Inf: ttserve
	// then answers 200 with an empty body. A candidate is skipped when the
	// product of its segments' traversal counts over the whole dataset — the
	// most that mass can be — exceeds 10^maxLogMass. Skipped candidates are
	// counted and printed; fixing the overflow is a later issue's work.
	maxLogMass = 300

	// Sequence lengths per second of measurement. Each is several times what
	// the server sustains on this class of host, so the clock — not the end
	// of the sequence — ends a run; a run that does exhaust its sequence
	// simply measures a shorter window.
	coldPerSecond = 4000
	hotPerSecond  = 20000
	mixPerSecond  = 12000
	// batchesPerSecond is the open-loop /extend rate of ingest_mixed: the
	// issue's one batch every 250 ms.
	batchesPerSecond = 4
)

// request is one /query call: the exact bytes sent on the wire and the same
// question as the in-process oracle takes it.
type request struct {
	url string // "/query?path=...&tod=HH:MM&window=...&beta=...[&user=...]"
	q   pathhist.Query
}

// datasetConfig is the dataset every workload serves: the repo's own
// full-scale (or, for the smoke test, small) configuration, seed included.
// The benchmark seed picks the requests, not the road network or the trips
// on it: two generated networks differ in query cost by a fifth, which
// would drown a layer's gain in the spread between seeds.
func datasetConfig(small bool) workload.Config {
	if small {
		return workload.SmallConfig()
	}
	return workload.DefaultConfig()
}

// requestRNG and friends derive independent streams from the one benchmark
// seed, so changing how many requests one workload draws never shifts
// another workload's inputs.
func streamRNG(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// The generator stratifies the properties a request's cost hangs on. A
// day-time request without a driver filter finds its samples in the first
// window and costs a fifth of a millisecond in the engine; one at night, or
// one filtered by a driver, relaxes all the way to the fallback and costs
// ten times that. Under the issue's mix the cheap kind is 0.8 × 0.63 = half
// of the requests, so the median latency sits on the boundary between the
// two, and with independent draws the few requests by which a seed's prefix
// leans one way move it by tens of per cent (sharded_cold, some 600 requests
// a run: p50 7.4 to 14.2 ms between seeds).
//
// Requests therefore come in blocks of strata. Within a block each 24
// minutes of the day, each 60th of the trajectories by length and each 60th
// of the range of lengths a sub-path can have occurs once, combined at random
// (a Latin hypercube), and the driver filter goes to every userEvery-th
// time-of-day stratum from a random phase, so that day and night get their
// fifth each. The marginals are the issue's — uniform per minute, uniform
// over the lengths, a fifth filtered — and every run's prefix of a sequence
// holds the same shares of the cheap and the dear whatever the seed.
const (
	strata    = 60
	userEvery = 5
)

// generator draws requests from one store's trajectories.
type generator struct {
	rng   *rand.Rand
	store *traj.Store
	// byLength is the store's trajectories of at least minSegments, shortest
	// first.
	byLength []traj.ID
	// tod, source and share are what is left of the current block's strata;
	// userPhase says which of its time-of-day strata carry the driver filter.
	tod, source, share []int
	userPhase          int
	// logLoad[e] is log10 of edge e's traversal count over the whole
	// dataset, for the maxLogMass guard.
	logLoad []float64
	skipped int // candidates dropped by the guard
}

// edgeLogLoad returns log10 of every edge's traversal count in the dataset.
func edgeLogLoad(ds *workload.Dataset) []float64 {
	load := make([]float64, ds.G.NumEdges())
	for i := range ds.Store.All() {
		for _, e := range ds.Store.Get(traj.ID(i)).Path() {
			load[e]++
		}
	}
	for e, n := range load {
		if n > 0 {
			load[e] = math.Log10(n)
		}
	}
	return load
}

// newGenerator prepares a generator over the store's trajectories.
func newGenerator(rng *rand.Rand, store *traj.Store, logLoad []float64) *generator {
	g := &generator{rng: rng, store: store, logLoad: logLoad}
	for i, tr := range store.All() {
		if tr.Len() >= minSegments {
			g.byLength = append(g.byLength, traj.ID(i))
		}
	}
	sort.SliceStable(g.byLength, func(a, b int) bool {
		return store.Get(g.byLength[a]).Len() < store.Get(g.byLength[b]).Len()
	})
	return g
}

// next draws one request.
func (g *generator) next() request {
	rng := g.rng
	for {
		if len(g.tod) == 0 {
			g.tod, g.source, g.share = rng.Perm(strata), rng.Perm(strata), rng.Perm(strata)
			g.userPhase = rng.Intn(userEvery)
		}
		todStratum, sourceStratum, shareStratum := g.tod[0], g.source[0], g.share[0]
		g.tod, g.source, g.share = g.tod[1:], g.source[1:], g.share[1:]
		lo, hi := sourceStratum*len(g.byLength)/strata, (sourceStratum+1)*len(g.byLength)/strata
		tr := g.store.Get(g.byLength[lo+rng.Intn(max(hi-lo, 1))]) // a store of fewer than strata trajectories has empty strata
		full := tr.Path()
		share := (float64(shareStratum) + rng.Float64()) / strata
		n := minSegments + int(share*float64(len(full)-minSegments+1))
		from := rng.Intn(len(full) - n + 1)
		path := full[from : from+n]
		const perStratum = 24 * 60 / strata
		minute := todStratum*perStratum + rng.Intn(perStratum)
		window := int64(900 << rng.Intn(2))
		beta := 10 << rng.Intn(2)
		withUser := (todStratum+g.userPhase)%userEvery == 0
		// Every draw above happens before the guard, so that what one
		// candidate consumes of the stream does not depend on its fate. A
		// dropped candidate is not replaced — most of the longest paths of
		// the longest trajectories could not be — so its block is one
		// request short.
		mass := 0.0
		for _, e := range path {
			mass += g.logLoad[e]
		}
		if mass > maxLogMass {
			g.skipped++
			continue
		}

		var b strings.Builder
		b.WriteString("/query?path=")
		for i, e := range path {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(e)))
		}
		fmt.Fprintf(&b, "&tod=%02d:%02d&window=%d&beta=%d", minute/60, minute%60, window, beta)
		q := pathhist.Query{
			Path:          append(pathhist.Path(nil), path...),
			Periodic:      true,
			Around:        int64(minute * 60),
			WindowSeconds: window,
			Beta:          beta,
		}
		if withUser {
			fmt.Fprintf(&b, "&user=%d", tr.User)
			q.FilterUser = true
			q.User = tr.User
		}
		return request{url: b.String(), q: q}
	}
}

// distinct returns n pairwise-distinct requests.
func (g *generator) distinct(n int) []request {
	seen := make(map[string]struct{}, n)
	out := make([]request, 0, n)
	for len(out) < n {
		r := g.next()
		if _, dup := seen[r.url]; dup {
			continue
		}
		seen[r.url] = struct{}{}
		out = append(out, r)
	}
	return out
}

// Popularity moves on: every rotateEvery draws the ranks shift rotateStep
// entries along the pool. At any moment the traffic is Zipf(zipfS) over the
// same pool, but under that law one request is a sixth of the traffic and
// ten are half of it, and were they the same ten for a whole run, whether a
// seed ranked cheap day-time requests or dear night-time ones first would
// set every figure of that run (p50 0.19 to 0.50 ms between seeds on
// route_hot). A run passes through a hundred rankings instead.
const (
	rotateEvery = 256
	rotateStep  = 37 // odd, so that the ranks visit every entry of a power-of-two pool
)

// zipfOrder returns n indexes into a pool of the given size, Zipf(zipfS)
// distributed over ranks that rotate through the pool.
func zipfOrder(rng *rand.Rand, pool, n int) []int32 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32((int(z.Uint64()) + i/rotateEvery*rotateStep) % pool)
	}
	return out
}

// inOrder is the sequence that visits a pool front to back, once.
func inOrder(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// batch is one /extend body and what it holds.
type batch struct {
	body    []byte
	trajs   int
	records int
}

// splitForIngest cuts the (start-sorted) store into a base prefix of about
// baseShare of the trajectories and up to nBatches strictly-newer batches,
// every cut at the quiescent position nearest an equal-count boundary.
// Fewer batches come back when the tail has fewer quiescent cuts.
func splitForIngest(store *traj.Store, nBatches int) (base *traj.Store, batches []batch, err error) {
	cuts := store.QuiescentCuts()
	n := store.Len()
	nearest := func(target int) int {
		i := sort.SearchInts(cuts, target)
		switch {
		case i == len(cuts):
			return cuts[len(cuts)-1]
		case i > 0 && target-cuts[i-1] < cuts[i]-target:
			return cuts[i-1]
		}
		return cuts[i]
	}
	if len(cuts) == 0 {
		return nil, nil, fmt.Errorf("dataset has no quiescent cut to ingest at")
	}
	baseEnd := nearest(int(baseShare * float64(n)))
	bounds := []int{baseEnd}
	for k := 1; k < nBatches; k++ {
		c := nearest(baseEnd + k*(n-baseEnd)/nBatches)
		if c > bounds[len(bounds)-1] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, n)
	for i := 0; i+1 < len(bounds); i++ {
		part := store.Slice(bounds[i], bounds[i+1])
		var buf bytes.Buffer
		if _, err := part.WriteTo(&buf); err != nil {
			return nil, nil, fmt.Errorf("encoding batch %d: %w", i, err)
		}
		batches = append(batches, batch{body: buf.Bytes(), trajs: part.Len(), records: part.NumTraversals()})
	}
	return store.Slice(0, baseEnd), batches, nil
}

// inputs is everything one run of one workload sends, fixed by the seed.
type inputs struct {
	warm    []request // untimed
	pool    []request // the distinct requests
	order   []int32   // the timed sequence, as indexes into pool
	batches []batch   // ingest_mixed only
	probes  []request // ingest_mixed only: asked before the kill and after the restart
	skipped int       // candidates the maxLogMass guard dropped while these were drawn
}

// cutDataset returns what the server indexes at start and, for
// ingest_mixed, the batches it ingests afterwards.
func cutDataset(name string, store *traj.Store, seconds int) (served *traj.Store, batches []batch, err error) {
	if name != "ingest_mixed" {
		return store, nil, nil
	}
	return splitForIngest(store, batchesPerSecond*seconds)
}

// makeInputs derives a workload's requests from the store the server starts
// with; load is edgeLogLoad of the whole dataset. seconds only sets how long
// the sequences are; a longer run extends them and never reorders their
// head.
func makeInputs(name string, served *traj.Store, load []float64, batches []batch, seed int64, seconds int) (*inputs, error) {
	in := &inputs{batches: batches}
	gen := func(stream string) *generator {
		return newGenerator(streamRNG(seed, stream), served, load)
	}
	switch name {
	case "route_cold", "sharded_cold":
		// sharded_cold asks route_cold's questions: same stream, same order.
		g := gen("cold")
		all := g.distinct(warmRequests + coldPerSecond*seconds)
		in.warm, in.pool = all[:warmRequests], all[warmRequests:]
		in.order = inOrder(len(in.pool))
		in.skipped = g.skipped
	case "route_hot":
		g := gen("hot")
		in.pool = g.distinct(hotPoolSize)
		in.warm = in.pool // one pass fills the full-result cache
		in.order = zipfOrder(g.rng, hotPoolSize, hotPerSecond*seconds)
		in.skipped = g.skipped
	case "ingest_mixed":
		g, probes := gen("mixed"), gen("probe")
		in.pool = g.distinct(mixPoolSize)
		in.warm = in.pool[:warmRequests]
		in.order = zipfOrder(g.rng, mixPoolSize, mixPerSecond*seconds)
		in.probes = probes.distinct(64)
		in.skipped = g.skipped + probes.skipped
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return in, nil
}

// hash folds everything the server will receive into one FNV-1a value; the
// generator test pins it.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	for _, r := range in.warm {
		h.Write([]byte(r.url))
	}
	for _, i := range in.order {
		h.Write([]byte(in.pool[i].url))
	}
	for _, b := range in.batches {
		h.Write(b.body)
	}
	for _, r := range in.probes {
		h.Write([]byte(r.url))
	}
	return h.Sum64()
}
