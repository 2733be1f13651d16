package snt

import (
	"slices"
	"strings"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// sliceStore cuts [lo, hi) of a sorted store into a fresh store.
func sliceStore(s *traj.Store, lo, hi int) *traj.Store {
	out := traj.NewStore()
	for i := lo; i < hi; i++ {
		tr := s.Get(traj.ID(i))
		out.Add(tr.User, append([]traj.Entry(nil), tr.Seq...))
	}
	return out
}

// fragmentedIndex builds an index over the first chunk of the store and
// extends it with the rest in nBatches batches, yielding nBatches+1
// partitions over exactly the store's trajectories.
func fragmentedIndex(t testing.TB, g *network.Graph, s *traj.Store, nBatches int, opts Options) *Index {
	t.Helper()
	s.SortByStart()
	n := s.Len()
	chunk := n / (nBatches + 1)
	ix := Build(g, sliceStore(s, 0, chunk), opts)
	for b := 0; b < nBatches; b++ {
		lo := chunk * (b + 1)
		hi := chunk * (b + 2)
		if b == nBatches-1 {
			hi = n
		}
		next, err := ix.Extend(sliceStore(s, lo, hi))
		if err != nil {
			t.Fatalf("extend batch %d: %v", b, err)
		}
		ix = next
	}
	return ix
}

// assertCensus requires every segment's time-of-day census to equal a
// recount of its timestamp column (records per half-hour of the day, capped
// at 255) — the invariant the census rejection of a periodic window rests
// on, whichever of Build, Extend, compaction or a snapshot load made the
// index.
func assertCensus(t testing.TB, ix *Index, label string) {
	t.Helper()
	ix.frozen.Each(func(e network.EdgeID, fx *temporal.FrozenIndex) {
		var want [temporal.CensusBuckets]uint8
		for _, ts := range fx.Ts {
			if b := &want[mod(ts, DaySeconds)/1800]; *b < 255 {
				*b++
			}
		}
		if got := fx.Census(); got != want {
			t.Fatalf("%s: segment %d census %v, recount of Ts %v", label, e, got, want)
		}
	})
}

// queryGrid exercises paths × intervals × filters with exact-order
// comparison between two indexes, both of which must carry a true census.
func assertSameResults(t *testing.T, ids map[string]network.EdgeID, a, b *Index, label string) {
	t.Helper()
	assertCensus(t, a, label)
	assertCensus(t, b, label)
	paths := []network.Path{
		path(ids, "A"), path(ids, "A", "B"), path(ids, "A", "B", "E"),
		path(ids, "A", "C", "D", "E"), path(ids, "B", "E"), path(ids, "C", "D"),
	}
	intervals := []Interval{
		NewFixed(0, 40*DaySeconds),
		NewFixed(5*DaySeconds, 12*DaySeconds),
		PeriodicAround(10*3600, 3600),
		NewPeriodic(23*3600, 7200),
	}
	filters := []Filter{NoFilter, {User: 2, ExcludeTraj: -1}, {User: traj.NoUser, ExcludeTraj: 7}}
	for _, p := range paths {
		for _, iv := range intervals {
			for _, f := range filters {
				for _, beta := range []int{0, 5, 20} {
					xa, fba := a.GetTravelTimes(p, iv, f, beta)
					xb, fbb := b.GetTravelTimes(p, iv, f, beta)
					// Exact sample order: the temporal scan order is
					// partition-layout invariant, so the sequences must be
					// identical, not just equal as sets.
					if fba != fbb || !equalInts(xa, xb) {
						t.Fatalf("%s: %v %v f=%v beta=%d: %v/%v vs %v/%v",
							label, p, iv, f, beta, xa, fba, xb, fbb)
					}
				}
			}
		}
	}
	for _, p := range paths {
		if a.PathCount(p) != b.PathCount(p) {
			t.Fatalf("%s: PathCount differs on %v", label, p)
		}
		ra, rb := a.ISARanges(p), b.ISARanges(p)
		if len(ra) == len(rb) {
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s: ISA range %d differs on %v: %v vs %v", label, i, p, ra[i], rb[i])
				}
			}
		}
	}
}

// TestCompactMatchesFullBuild is the central differential: an index
// fragmented by many Extends and then fully compacted must be structurally
// identical to a from-scratch single-partition Build over the same
// trajectories — same sample order, same ISA ranges, same ToD histograms,
// same memory model.
func TestCompactMatchesFullBuild(t *testing.T) {
	g, ids, s := synthStore(t, 20, 15)
	frag := fragmentedIndex(t, g, s, 7, Options{})
	if frag.NumPartitions() != 8 {
		t.Fatalf("fragmented partitions = %d", frag.NumPartitions())
	}

	compacted, stats, err := frag.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if compacted.NumPartitions() != 1 || stats.PartitionsBefore != 8 || stats.PartitionsAfter != 1 || stats.Runs != 1 {
		t.Fatalf("compaction stats: %+v", stats)
	}
	if stats.TrajsRebuilt != s.Len() {
		t.Fatalf("TrajsRebuilt = %d, want %d", stats.TrajsRebuilt, s.Len())
	}
	if compacted.CompactedFrom() != 8 || !strings.Contains(compacted.String(), "1 partitions (compacted from 8)") {
		t.Fatalf("String() = %q", compacted.String())
	}

	_, _, s2 := synthStore(t, 20, 15)
	scratch := Build(g, s2, Options{})
	assertSameResults(t, ids, scratch, compacted, "compacted vs from-scratch")

	// The frozen columns are bit-identical to the from-scratch build's:
	// same timestamps and payloads, rewritten ISA positions; and the
	// partition lookup is gone (single-partition layout).
	if compacted.part != nil {
		t.Fatalf("partition lookup of %d trajectories kept after full compaction", len(compacted.part))
	}
	scratch.Frozen().Each(func(e network.EdgeID, want *temporal.FrozenIndex) {
		got := compacted.Frozen().Get(e)
		if got == nil || got.Len() != want.Len() {
			t.Fatalf("edge %d: column length mismatch", e)
		}
		if got.Census() != want.Census() {
			t.Fatalf("edge %d: census %v vs scratch %v", e, got.Census(), want.Census())
		}
		for i := range want.Ts {
			if got.Ts[i] != want.Ts[i] || got.Traj[i] != want.Traj[i] ||
				got.Seq[i] != want.Seq[i] || got.ISA[i] != want.ISA[i] {
				t.Fatalf("edge %d record %d: %+v vs scratch", e, i, got)
			}
		}
	})
	if !slices.Equal(compacted.frozen.Cum, scratch.frozen.Cum) || !slices.Equal(compacted.frozen.Start, scratch.frozen.Start) {
		t.Fatal("cumulative column differs from the from-scratch build's")
	}

	// Memory model: identical FM-index and forest footprints (the many
	// small wavelet trees and C arrays are gone).
	mc, ms := compacted.Memory(), scratch.Memory()
	if mc != ms {
		t.Fatalf("memory model differs: %+v vs %+v", mc, ms)
	}
	fragMem := frag.Memory()
	if mc.CBytes >= fragMem.CBytes || mc.Total() >= fragMem.Total() {
		t.Fatalf("compaction did not shrink the index: %+v vs fragmented %+v", mc, fragMem)
	}

	// ToD selectivities match the from-scratch build exactly.
	for _, name := range []string{"A", "B", "E"} {
		sa, oka := todSel(scratch, ids[name], NewPeriodic(7*3600, 7200))
		sb, okb := todSel(compacted, ids[name], NewPeriodic(7*3600, 7200))
		if oka != okb || sa != sb {
			t.Fatalf("ToD selectivity differs on %s: %v/%v vs %v/%v", name, sa, oka, sb, okb)
		}
	}
}

// TestCompactSupersedesSource pins the linear-chain contract: compaction
// supersedes the receiver like Extend does, the receiver stays queryable,
// and the compacted snapshot remains extendable.
func TestCompactSupersedesSource(t *testing.T) {
	g, ids, s := synthStore(t, 20, 10)
	frag := fragmentedIndex(t, g, s, 7, Options{})
	compacted, _, err := frag.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Source refuses further mutation but still answers queries.
	if _, _, err := frag.Compact(CompactionPolicy{}); err != ErrSuperseded {
		t.Fatalf("second Compact on superseded snapshot: %v", err)
	}
	far := traj.NewStore()
	far.Add(0, []traj.Entry{{Edge: ids["A"], T: 1 << 40, TT: 5}})
	if _, err := frag.Extend(far); err != ErrSuperseded {
		t.Fatalf("Extend on superseded snapshot: %v", err)
	}
	if xs, _ := frag.GetTravelTimes(path(ids, "A", "B"), NewFixed(0, 1<<60), NoFilter, 0); len(xs) == 0 {
		t.Fatal("superseded source stopped answering queries")
	}
	// The compacted snapshot continues the chain.
	ext, err := compacted.Extend(far)
	if err != nil {
		t.Fatal(err)
	}
	if ext.NumPartitions() != 2 {
		t.Fatalf("partitions after compact+extend = %d", ext.NumPartitions())
	}
	if xs, _ := ext.GetTravelTimes(path(ids, "A"), NewFixed(1<<40, 1<<60), NoFilter, 0); len(xs) != 1 {
		t.Fatalf("post-compaction extend lost the new batch: %v", xs)
	}
}

// TestCompactPolicyTiers pins the size-tiered planner: large partitions
// survive, runs are cut at the record cap, and the trigger gates planning.
func TestCompactPolicyTiers(t *testing.T) {
	g, ids, s := synthStore(t, 24, 12)
	frag := fragmentedIndex(t, g, s, 11, Options{})
	if frag.NumPartitions() != 12 {
		t.Fatalf("partitions = %d", frag.NumPartitions())
	}
	perPart := frag.parts[1].records

	// Below the trigger: no-op, receiver returned un-superseded.
	same, stats, err := frag.Compact(CompactionPolicy{TriggerPartitions: 64})
	if err != nil || same != frag || stats.PartitionsAfter != stats.PartitionsBefore {
		t.Fatalf("trigger gate failed: %v %+v", err, stats)
	}
	if frag.superseded.Load() {
		t.Fatal("no-op compaction superseded the snapshot")
	}

	// A record cap of ~3 partitions' worth produces several merged tiers.
	capRecords := perPart*3 + 1
	tiered, stats, err := frag.Compact(CompactionPolicy{MaxMergedRecords: capRecords})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.NumPartitions() >= 12 || stats.Runs < 2 {
		t.Fatalf("tiered compaction ineffective: %d partitions, %+v", tiered.NumPartitions(), stats)
	}
	total := 0
	for _, pt := range tiered.parts {
		total += pt.records
		if pt.records > capRecords && pt.records > frag.parts[0].records {
			t.Fatalf("merged partition exceeds cap: %d > %d", pt.records, capRecords)
		}
	}
	if total != frag.Stats().Records {
		t.Fatalf("records lost: %d vs %d", total, frag.Stats().Records)
	}
	// Partial layouts answer identically to the fragmented source.
	assertSameResults(t, ids, frag, tiered, "tiered vs fragmented")
}

// TestCompactSurvivorsAndRemap builds a big/small/big/small layout so that
// merged runs sit next to surviving large partitions: the survivors'
// trajectories must get remapped partition ids while sharing everything
// else, and the merged runs must collapse around them.
func TestCompactSurvivorsAndRemap(t *testing.T) {
	g, ids, s := synthStore(t, 32, 12)
	s.SortByStart()
	n := s.Len()
	// Partition layout by trajectory count: one big half, three small
	// sixteenths, one big quarter, then the remainder in three small cuts.
	cuts := []int{0, n / 2}
	for k := 0; k < 3; k++ {
		cuts = append(cuts, cuts[len(cuts)-1]+n/16)
	}
	cuts = append(cuts, cuts[len(cuts)-1]+n/4)
	rest := n - cuts[len(cuts)-1]
	for k := 0; k < 2; k++ {
		cuts = append(cuts, cuts[len(cuts)-1]+rest/3)
	}
	cuts = append(cuts, n)
	ix := Build(g, sliceStore(s, cuts[0], cuts[1]), Options{})
	for c := 1; c+1 < len(cuts); c++ {
		next, err := ix.Extend(sliceStore(s, cuts[c], cuts[c+1]))
		if err != nil {
			t.Fatal(err)
		}
		ix = next
	}
	if ix.NumPartitions() != 8 {
		t.Fatalf("partitions = %d", ix.NumPartitions())
	}
	// Cap below the big partitions, above each small run's sum.
	bigMin := ix.parts[0].records
	if r := ix.parts[4].records; r < bigMin {
		bigMin = r
	}
	smallSum := 0
	for _, w := range []int{1, 2, 3} {
		smallSum += ix.parts[w].records
	}
	if smallSum >= bigMin {
		t.Fatalf("layout precondition broken: small run %d >= big %d", smallSum, bigMin)
	}
	compacted, stats, err := ix.Compact(CompactionPolicy{TriggerPartitions: -1, MaxMergedRecords: bigMin})
	if err != nil {
		t.Fatal(err)
	}
	// Expected layout: [big][merged smalls][big][merged smalls] = 4.
	if stats.PartitionsAfter != 4 || stats.Runs != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if compacted.parts[0].records != ix.parts[0].records || compacted.parts[2].records != ix.parts[4].records {
		t.Fatal("surviving partitions changed size")
	}
	// Survivors share their FM-index with the source (no rebuild).
	if compacted.parts[0].fm != ix.parts[0].fm || compacted.parts[2].fm != ix.parts[4].fm {
		t.Fatal("surviving partitions were rebuilt")
	}
	assertSameResults(t, ids, ix, compacted, "survivors")
	for _, name := range []string{"A", "E"} {
		sa, oka := todSel(ix, ids[name], NewPeriodic(8*3600, 3600))
		sb, okb := todSel(compacted, ids[name], NewPeriodic(8*3600, 3600))
		if oka != okb || !approxEq(sa, sb) {
			t.Fatalf("ToD selectivity differs on %s: %v vs %v", name, sa, sb)
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestCompactEmptyPartitions: PartitionDays layouts can contain partitions
// with no trajectories at all; compaction must carry them through a merge.
func TestCompactEmptyPartitions(t *testing.T) {
	g, ids := network.PaperExample()
	s := traj.NewStore()
	// Day 0 and day 9 only: Build with 1-day partitions makes 10 partitions,
	// 8 of them empty.
	for d := range []int{0, 9} {
		day := int64([]int{0, 9}[d])
		for k := 0; k < 5; k++ {
			t0 := day*DaySeconds + int64(8*3600+60*k)
			s.Add(traj.UserID(k), []traj.Entry{
				{Edge: ids["A"], T: t0, TT: 10},
				{Edge: ids["B"], T: t0 + 10, TT: 12},
			})
		}
	}
	ix := Build(g, s, Options{PartitionDays: 1})
	if ix.NumPartitions() != 10 {
		t.Fatalf("partitions = %d", ix.NumPartitions())
	}
	compacted, stats, err := ix.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if compacted.NumPartitions() != 1 || stats.TrajsRebuilt != 10 {
		t.Fatalf("stats: %+v", stats)
	}
	a, _ := ix.GetTravelTimes(path(ids, "A", "B"), NewFixed(0, 1<<60), NoFilter, 0)
	b, _ := compacted.GetTravelTimes(path(ids, "A", "B"), NewFixed(0, 1<<60), NoFilter, 0)
	if len(a) != 10 || !equalInts(a, b) {
		t.Fatalf("empty-partition merge broke retrieval: %v vs %v", a, b)
	}
}
