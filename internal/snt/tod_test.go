package snt

import (
	"bytes"
	"math"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// todSel is formula (2) over the derived 15-minute histograms, summed over
// the partitions in order exactly as the Acc estimators sum it.
func todSel(ix *Index, e network.EdgeID, iv Interval) (float64, bool) {
	var in, total float64
	for _, per := range ix.TodHistograms(900) {
		if h := per[e]; h != nil {
			in += h.MassRange(iv.TodStart, iv.TodStart+iv.Width)
			total += float64(h.Total())
		}
	}
	if total == 0 {
		return 0, false
	}
	return in / total, true
}

// todOracle recounts the time-of-day histograms from the trajectory store
// the index was built and extended from in start order, so that index
// trajectory d is s.Get(d). A trajectory belongs to the last partition
// whose first trajectory starts no later than it does (an empty partition
// starts where its successor does); every entry time falls in bucket
// mod(T, day)/width. counts[w][e] is nil when partition w never enters e.
func todOracle(ix *Index, s *traj.Store, width int) [][][]int64 {
	starts := make([]int64, len(ix.parts))
	first := make([]int, len(ix.parts))
	for w := 1; w < len(ix.parts); w++ {
		first[w] = first[w-1] + ix.parts[w-1].trajs
	}
	next := int64(math.MaxInt64)
	for w := len(ix.parts) - 1; w >= 0; w-- {
		if ix.parts[w].trajs > 0 {
			next = s.Get(traj.ID(first[w])).StartTime()
		}
		starts[w] = next
	}
	counts := make([][][]int64, len(ix.parts))
	for w := range counts {
		counts[w] = make([][]int64, ix.g.NumEdges())
	}
	for d := 0; d < len(ix.users); d++ {
		tr := s.Get(traj.ID(d))
		w := 0
		for w+1 < len(starts) && starts[w+1] <= tr.StartTime() {
			w++
		}
		for _, en := range tr.Seq {
			c := counts[w][en.Edge]
			if c == nil {
				c = make([]int64, DaySeconds/width)
				counts[w][en.Edge] = c
			}
			c[mod(en.T, DaySeconds)/int64(width)]++
		}
	}
	return counts
}

// assertTodMatchesOracle compares TodHistograms bucket for bucket with the
// store recount at the 1-, 10- and 15-minute widths.
func assertTodMatchesOracle(t *testing.T, ix *Index, s *traj.Store, label string) {
	t.Helper()
	for _, width := range []int{60, 600, 900} {
		want := todOracle(ix, s, width)
		got := ix.TodHistograms(width)
		if len(got) != len(want) {
			t.Fatalf("%s width %d: %d partitions, oracle %d", label, width, len(got), len(want))
		}
		for w := range want {
			if len(got[w]) != len(want[w]) {
				t.Fatalf("%s width %d partition %d: %d segments, oracle %d", label, width, w, len(got[w]), len(want[w]))
			}
			for e, counts := range want[w] {
				h := got[w][e]
				if (h == nil) != (counts == nil) {
					t.Fatalf("%s width %d: H[%d][%d] presence %v, oracle %v", label, width, w, e, h != nil, counts != nil)
				}
				if h == nil {
					continue
				}
				if h.Width() != width {
					t.Fatalf("%s: H[%d][%d] width %d, want %d", label, w, e, h.Width(), width)
				}
				var total int64
				for b, c := range counts {
					lo := int64(b * width)
					if m := h.MassRange(lo, lo+int64(width)); m != float64(c) {
						t.Fatalf("%s width %d: H[%d][%d] bucket %d holds %v, oracle %d", label, width, w, e, b, m, c)
					}
					total += c
				}
				if h.Total() != total {
					t.Fatalf("%s width %d: H[%d][%d] total %d, oracle %d", label, width, w, e, h.Total(), total)
				}
			}
		}
	}
}

// TestTodHistogramsMatchStoreRecount: the derived time-of-day histograms
// equal a recount from the trajectory store, partition by partition, after
// every step of the index lifecycle — Build, two Extends, a synchronous
// Compact, a compaction prepared before an Extend and applied after it,
// and the copied and the mapped snapshot load.
func TestTodHistogramsMatchStoreRecount(t *testing.T) {
	for _, opts := range []Options{{}, {PartitionDays: 7}} {
		g, _, s := synthStore(t, 20, 15)
		s.SortByStart()
		n := s.Len()
		cuts := []int{0, n / 2, 3 * n / 4, n}
		label := func(step string) string {
			if opts.PartitionDays > 0 {
				return step + " (weekly)"
			}
			return step
		}
		build := func() *Index {
			ix := Build(g, sliceStore(s, cuts[0], cuts[1]), opts)
			assertTodMatchesOracle(t, ix, s, label("build"))
			return ix
		}
		extend := func(ix *Index, k int) *Index {
			t.Helper()
			next, err := ix.Extend(sliceStore(s, cuts[k], cuts[k+1]))
			if err != nil {
				t.Fatal(err)
			}
			return next
		}

		ix := extend(build(), 1)
		assertTodMatchesOracle(t, ix, s, label("first extend"))
		ix = extend(ix, 2)
		assertTodMatchesOracle(t, ix, s, label("second extend"))
		compacted, _, err := ix.Compact(CompactionPolicy{TriggerPartitions: -1})
		if err != nil {
			t.Fatal(err)
		}
		if compacted.NumPartitions() >= ix.NumPartitions() {
			t.Fatalf("compaction kept %d of %d partitions", compacted.NumPartitions(), ix.NumPartitions())
		}
		assertTodMatchesOracle(t, compacted, s, label("compact"))

		// Prepared against the first extension, applied to the second: the
		// merged partition is followed by one the preparation never saw.
		ext1 := extend(build(), 1)
		prep, err := ext1.PrepareCompaction(CompactionPolicy{TriggerPartitions: -1})
		if err != nil || prep == nil {
			t.Fatalf("prepare: %v, %v", prep, err)
		}
		applied, _, err := extend(ext1, 2).ApplyCompaction(prep)
		if err != nil {
			t.Fatal(err)
		}
		if applied.NumPartitions() != 2 {
			t.Fatalf("prepare+apply left %d partitions, want the merged one and the new one", applied.NumPartitions())
		}
		assertTodMatchesOracle(t, applied, s, label("prepare+apply"))

		data := snapshotBytes(t, applied, 1)
		copied, _, err := ReadSnapshot(g, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		assertTodMatchesOracle(t, copied, s, label("copied load"))
		mapped, _, err := ReadSnapshotMapped(g, data)
		if err != nil {
			t.Fatal(err)
		}
		assertTodMatchesOracle(t, mapped, s, label("mapped load"))
	}
}
