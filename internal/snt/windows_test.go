package snt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bruteWindows is forEachWindow by definition: the records the interval
// contains, grouped by the day their window opened on, as [st, en) offset
// pairs in ascending day order. ts is sorted, so every group is contiguous.
func bruteWindows(ts []int64, iv Interval) [][2]int {
	var out [][2]int
	var lastDay int64
	for i, t := range ts {
		if !iv.Contains(t) {
			continue
		}
		day := floorDiv(t-iv.TodStart, DaySeconds)
		if n := len(out); n > 0 && day == lastDay && out[n-1][1] == i {
			out[n-1][1] = i + 1
		} else {
			out = append(out, [2]int{i, i + 1})
		}
		lastDay = day
	}
	return out
}

// TestForEachWindowMatchesBruteForce: the [st, en) windows forEachWindow
// yields over a column equal the brute-force grouping by Interval.Contains
// and day, newest window first.
func TestForEachWindowMatchesBruteForce(t *testing.T) {
	const day = DaySeconds
	at := func(d, h, m, s int64) int64 { return d*day + h*3600 + m*60 + s }
	type row struct {
		name string
		ts   []int64
		iv   Interval
	}
	rows := []row{
		{"one window per day", []int64{at(0, 8, 0, 0), at(0, 8, 10, 0), at(1, 8, 5, 0), at(2, 8, 29, 59)}, NewPeriodic(8*3600, 1800)},
		{"midnight wrap", []int64{at(0, 0, 5, 0), at(0, 12, 0, 0), at(0, 23, 50, 0), at(1, 0, 10, 0), at(1, 0, 20, 0), at(1, 23, 45, 0), at(3, 0, 0, 0)},
			NewPeriodic(23*3600+45*60, 1800)},
		{"wrap, records before the epoch", []int64{at(-2, 23, 59, 0), at(-1, 0, 1, 0), at(-1, 23, 58, 0), at(0, 0, 0, 0)}, NewPeriodic(23*3600+55*60, 600)},
		{"runs of empty days", []int64{at(0, 9, 0, 0), at(40, 9, 1, 0), at(41, 3, 0, 0), at(90, 9, 2, 0), at(400, 9, 3, 0)}, NewPeriodic(9*3600, 900)},
		{"gap records between the windows", []int64{at(0, 9, 0, 0), at(0, 15, 0, 0), at(1, 2, 0, 0), at(1, 9, 0, 0), at(1, 20, 0, 0), at(5, 1, 0, 0), at(5, 9, 14, 59), at(5, 9, 15, 0)},
			NewPeriodic(9*3600, 900)},
		{"all records above the window", []int64{at(0, 18, 0, 0), at(1, 19, 0, 0), at(2, 20, 0, 0)}, NewPeriodic(6*3600, 3600)},
		{"all records below the window", []int64{at(0, 1, 0, 0), at(1, 2, 0, 0), at(2, 3, 0, 0)}, NewPeriodic(22*3600, 3600)},
		{"one record, inside", []int64{at(7, 8, 0, 0)}, NewPeriodic(8*3600, 1)},
		{"one record, outside", []int64{at(7, 8, 0, 1)}, NewPeriodic(8*3600, 1)},
		{"one record, wrapped window", []int64{at(7, 0, 0, 0)}, NewPeriodic(23*3600, 2*3600)},
		{"width one second", []int64{at(0, 7, 59, 59), at(0, 8, 0, 0), at(0, 8, 0, 0), at(0, 8, 0, 1), at(1, 8, 0, 0)}, NewPeriodic(8*3600, 1)},
		{"width a day less one", []int64{at(0, 0, 0, 0), at(0, 7, 59, 59), at(0, 8, 0, 0), at(1, 7, 59, 58), at(1, 7, 59, 59), at(1, 8, 0, 0), at(2, 7, 59, 59)},
			NewPeriodic(8*3600, day-1)},
		{"ties across a window edge", []int64{at(0, 8, 29, 59), at(0, 8, 30, 0), at(0, 8, 30, 0), at(1, 8, 0, 0), at(1, 8, 0, 0)}, NewPeriodic(8*3600, 1800)},
	}
	// Random columns: clustered hours, long gaps, duplicates.
	rng := rand.New(rand.NewSource(21))
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(60)
		ts := make([]int64, n)
		base := rng.Int63n(day)
		for i := range ts {
			ts[i] = (rng.Int63n(30)-3)*day + base + rng.Int63n(1+rng.Int63n(6*3600))
		}
		slices.Sort(ts)
		widths := []int64{1, 2, 900, 3600, 12 * 3600, day - 2, day - 1}
		rows = append(rows, row{fmt.Sprintf("random %d", k), ts, NewPeriodic(rng.Int63n(day), widths[rng.Intn(len(widths))])})
	}
	// Sparse, long columns like DefaultConfig's (420 days, about 11 records
	// in a one-hour window of a median segment): the scan jumps over
	// hundreds of empty days, often from a record in the gap above the
	// window.
	for k := 0; k < 200; k++ {
		span, width := 300+rng.Int63n(151), 1+rng.Int63n(3600)
		iv := NewPeriodic(rng.Int63n(day), width)
		ts := make([]int64, 1+rng.Intn(15))
		for i := range ts {
			ts[i] = rng.Int63n(span) * day
			if rng.Intn(2) == 0 {
				ts[i] += iv.TodStart + rng.Int63n(width) // inside that day's window
			} else {
				ts[i] += rng.Int63n(day)
			}
		}
		slices.Sort(ts)
		rows = append(rows, row{fmt.Sprintf("sparse %d", k), ts, iv})
	}
	for _, r := range rows {
		want := bruteWindows(r.ts, r.iv)
		var got [][2]int
		forEachWindow(r.ts, r.iv, func(st, en int) bool {
			got = append(got, [2]int{st, en})
			return true
		})
		slices.Reverse(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s (%v): windows %v, brute force %v", r.name, r.iv, got, want)
		}
	}
}
