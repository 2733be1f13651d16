package snt

import "testing"

func TestFixedInterval(t *testing.T) {
	iv := NewFixed(100, 200)
	if iv.IsPeriodic() {
		t.Error("fixed is not periodic")
	}
	if iv.Alpha() != 100 {
		t.Errorf("Alpha = %d", iv.Alpha())
	}
	if !iv.Contains(100) || iv.Contains(200) || iv.Contains(99) {
		t.Error("Contains bounds wrong")
	}
	var ranges [][2]int64
	iv.EachRange(0, 1000, func(lo, hi int64) bool {
		ranges = append(ranges, [2]int64{lo, hi})
		return true
	})
	if len(ranges) != 1 || ranges[0] != [2]int64{100, 200} {
		t.Errorf("EachRange = %v", ranges)
	}
	// Clipping to the data range.
	ranges = nil
	iv.EachRange(150, 170, func(lo, hi int64) bool {
		ranges = append(ranges, [2]int64{lo, hi})
		return true
	})
	if len(ranges) != 1 || ranges[0] != [2]int64{150, 171} {
		t.Errorf("clipped EachRange = %v", ranges)
	}
}

func TestPeriodicContainsAndWrap(t *testing.T) {
	// 08:00-08:30 daily.
	iv := NewPeriodic(8*3600, 1800)
	if !iv.IsPeriodic() || iv.Alpha() != 1800 {
		t.Fatal("periodic basics")
	}
	day := int64(5 * DaySeconds)
	if !iv.Contains(day + 8*3600) {
		t.Error("inside window")
	}
	if !iv.Contains(day + 8*3600 + 1799) {
		t.Error("end of window")
	}
	if iv.Contains(day + 8*3600 + 1800) {
		t.Error("past window")
	}
	if iv.Contains(day + 7*3600) {
		t.Error("before window")
	}
	// Wrapping window 23:45-00:15.
	w := NewPeriodic(23*3600+45*60, 1800)
	if !w.Contains(day) || !w.Contains(day+14*60) || !w.Contains(day-10*60) {
		t.Error("wrapped window misses")
	}
	if w.Contains(day + 16*60) {
		t.Error("wrapped window leaks")
	}
	// Negative TodStart is normalised.
	n := NewPeriodic(-900, 1800)
	if n.TodStart != DaySeconds-900 {
		t.Errorf("normalised TodStart = %d", n.TodStart)
	}
	if !n.Contains(day+1) || !n.Contains(day-1) {
		t.Error("normalised window wrong")
	}
}

func TestPeriodicAroundCentres(t *testing.T) {
	// 10:00 with width 15 min -> [09:52:30, 10:07:30).
	base := int64(12*DaySeconds + 10*3600)
	iv := PeriodicAround(base, 900)
	if iv.TodStart != 10*3600-450 {
		t.Errorf("TodStart = %d", iv.TodStart)
	}
	if !iv.Contains(base) || !iv.Contains(base+449) || iv.Contains(base+450) {
		t.Error("centred window wrong")
	}
}

func TestResizePreservesCentre(t *testing.T) {
	iv := PeriodicAround(10*3600, 900)
	wide := iv.Resize(3600)
	if wide.Width != 3600 {
		t.Errorf("Width = %d", wide.Width)
	}
	if wide.TodStart != 10*3600-1800 {
		t.Errorf("widened TodStart = %d", wide.TodStart)
	}
	// Widen then shrink returns the original window.
	back := wide.Resize(900)
	if back.TodStart != iv.TodStart || back.Width != iv.Width {
		t.Errorf("resize round-trip: %+v vs %+v", back, iv)
	}
	// Resizing across midnight keeps the centre.
	mid := PeriodicAround(10, 900) // centred on 00:00:10
	w2 := mid.Resize(7200)
	if !w2.Contains(3*DaySeconds + 10) {
		t.Error("midnight-centred resize lost its centre")
	}
	// Width is capped at a day.
	huge := iv.Resize(10 * DaySeconds)
	if huge.Width != DaySeconds {
		t.Errorf("capped width = %d", huge.Width)
	}
}

func TestResizeFixedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Resize on fixed interval should panic")
		}
	}()
	NewFixed(0, 10).Resize(100)
}

func TestShiftEnlarge(t *testing.T) {
	iv := NewPeriodic(8*3600, 900)
	sh := iv.ShiftEnlarge(600, 300)
	if sh.TodStart != 8*3600+600 || sh.Width != 1200 {
		t.Errorf("ShiftEnlarge = %+v", sh)
	}
	// Fixed intervals pass through unchanged.
	fx := NewFixed(0, 100).ShiftEnlarge(10, 10)
	if fx.Start != 0 || fx.End != 100 {
		t.Error("fixed ShiftEnlarge should be identity")
	}
}

func TestEachRangePeriodic(t *testing.T) {
	iv := NewPeriodic(8*3600, 1800)
	tmin := int64(2*DaySeconds + 3600)
	tmax := int64(5*DaySeconds + 23*3600)
	var ranges [][2]int64
	iv.EachRange(tmin, tmax, func(lo, hi int64) bool {
		ranges = append(ranges, [2]int64{lo, hi})
		return true
	})
	if len(ranges) != 4 { // days 5..2, newest first
		t.Fatalf("ranges = %v", ranges)
	}
	for i, r := range ranges {
		d := int64(5 - i)
		if r[0] != d*DaySeconds+8*3600 || r[1] != d*DaySeconds+8*3600+1800 {
			t.Errorf("day %d range = %v", d, r)
		}
	}
	// Early stop.
	n := 0
	iv.EachRange(tmin, tmax, func(lo, hi int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
	// A wrapped window from the day before tmin still reaches into the
	// data range.
	w := NewPeriodic(23*3600+1800, 7200) // 23:30-01:30
	var oldest [2]int64
	got := false
	w.EachRange(3*DaySeconds, 3*DaySeconds+3600, func(lo, hi int64) bool {
		oldest = [2]int64{lo, hi}
		got = true
		return true
	})
	if !got || oldest[0] != 3*DaySeconds {
		t.Errorf("wrapped window not clipped into range: %v (got=%v)", oldest, got)
	}
}

func TestIntervalString(t *testing.T) {
	if NewFixed(1, 2).String() == "" || NewPeriodic(8*3600, 900).String() == "" {
		t.Error("String should be non-empty")
	}
}
