package snt

import (
	"fmt"

	"pathhist/internal/hist"
)

// DaySeconds is the length of a day in seconds.
const DaySeconds = hist.DaySeconds

// IntervalKind distinguishes the two temporal predicates of Section 2.3.
type IntervalKind uint8

// A temporal predicate either covers a fixed absolute interval or a periodic
// time-of-day interval recurring every 24 hours.
const (
	Fixed IntervalKind = iota
	Periodic
)

// Interval is the temporal predicate I of a strict path query.
type Interval struct {
	Kind IntervalKind
	// Fixed bounds [Start, End) in unix seconds (Kind == Fixed).
	Start, End int64
	// Periodic window [TodStart, TodStart+Width) seconds-of-day, recurring
	// daily (Kind == Periodic). TodStart is normalised to [0, DaySeconds);
	// the window may wrap midnight. Width is capped at DaySeconds.
	TodStart, Width int64
}

// NewFixed returns the fixed interval [start, end).
func NewFixed(start, end int64) Interval {
	return Interval{Kind: Fixed, Start: start, End: end}
}

// NewPeriodic returns the periodic interval [todStart, todStart+width)^R.
func NewPeriodic(todStart, width int64) Interval {
	if width > DaySeconds {
		width = DaySeconds
	}
	if width < 1 {
		width = 1
	}
	return Interval{Kind: Periodic, TodStart: mod(todStart, DaySeconds), Width: width}
}

// PeriodicAround returns the periodic interval of the given width centred on
// the time-of-day of t — the I_tr^R = [t0 - α/2, t0 + α/2)^R of Section 5.2.
func PeriodicAround(t int64, width int64) Interval {
	return NewPeriodic(mod(t, DaySeconds)-width/2, width)
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// IsPeriodic reports whether the interval is periodic.
func (iv Interval) IsPeriodic() bool { return iv.Kind == Periodic }

// Alpha returns the interval size α = te - ts.
func (iv Interval) Alpha() int64 {
	if iv.Kind == Periodic {
		return iv.Width
	}
	return iv.End - iv.Start
}

// Resize returns the interval with the given width, preserving its centre.
// This implements both widen (Procedure 1 line 3) and shrink (line 7); it
// panics on fixed intervals (never resized by the splitter).
func (iv Interval) Resize(width int64) Interval {
	if iv.Kind != Periodic {
		panic("snt: Resize on fixed interval")
	}
	centre := iv.TodStart + iv.Width/2
	return NewPeriodic(centre-width/2, width)
}

// ShiftEnlarge returns the shift-and-enlarge adaptation of Section 4.2 for
// the i-th sub-query: the window start shifts by s = Σ H_j^min and the width
// grows by r = Σ (H_j^max - H_j^min). (The paper writes [ts+S, te+R); we
// implement the Dai-et-al intent [ts+S, te+S+R) — see DESIGN.md §4.)
func (iv Interval) ShiftEnlarge(s, r int64) Interval {
	if iv.Kind != Periodic {
		return iv
	}
	return NewPeriodic(iv.TodStart+s, iv.Width+r)
}

// Contains reports whether the timestamp satisfies the predicate.
func (iv Interval) Contains(t int64) bool {
	if iv.Kind == Fixed {
		return t >= iv.Start && t < iv.End
	}
	if iv.Width >= DaySeconds {
		return true
	}
	return mod(mod(t, DaySeconds)-iv.TodStart, DaySeconds) < iv.Width
}

// EachRange enumerates the absolute timestamp ranges the interval covers
// within the data range [tmin, tmax], newest first, the order Procedure 3
// scans them in. fn returning false stops the enumeration. For periodic
// intervals this yields one (clipped) window per day.
func (iv Interval) EachRange(tmin, tmax int64, fn func(lo, hi int64) bool) {
	clipCall := func(lo, hi int64) bool {
		if lo < tmin {
			lo = tmin
		}
		if hi > tmax+1 {
			hi = tmax + 1
		}
		if lo >= hi {
			return true
		}
		return fn(lo, hi)
	}
	if iv.Kind == Fixed {
		clipCall(iv.Start, iv.End)
		return
	}
	firstDay := tmin/DaySeconds - 1 // wrapped windows of the previous day may reach tmin
	for d := tmax / DaySeconds; d >= firstDay; d-- {
		lo := d*DaySeconds + iv.TodStart
		if !clipCall(lo, lo+iv.Width) {
			return
		}
	}
}

// String formats the predicate for logs and error messages.
func (iv Interval) String() string {
	if iv.Kind == Fixed {
		return fmt.Sprintf("[%d, %d)", iv.Start, iv.End)
	}
	hh := iv.TodStart / 3600
	mm := iv.TodStart % 3600 / 60
	return fmt.Sprintf("[%02d:%02d +%dm)^R", hh, mm, iv.Width/60)
}
