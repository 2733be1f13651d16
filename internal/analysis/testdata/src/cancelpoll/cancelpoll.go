// Package cancelpoll is the test fixture for the cancelpoll analyzer: scan
// loops over frozen columns in Scratch-holding functions must poll
// Scratch.Canceled.
package cancelpoll

import (
	"pathhist/internal/snt"
	"pathhist/internal/temporal"
)

// unbounded sweeps a column without ever checking the deadline.
func unbounded(sc *snt.Scratch, fx *temporal.FrozenIndex) int64 {
	var s int64
	for i := range fx.Ts { // want `scan loop over frozen columns never polls Scratch\.Canceled`
		s += int64(fx.Seq[i])
	}
	return s
}

// polled checks the cancel channel at the stride: the required shape.
func polled(sc *snt.Scratch, fx *temporal.FrozenIndex) int64 {
	var s int64
	for i := range fx.Ts {
		if i&8191 == 0 && sc.Canceled() {
			return s
		}
		s += int64(fx.Seq[i])
	}
	return s
}

// viaAlias scans through a local alias of a column; still a scan loop.
func viaAlias(sc *snt.Scratch, fx *temporal.FrozenIndex) int64 {
	ts := fx.Ts
	var s int64
	for i := 0; i < len(ts); i++ { // want `scan loop over frozen columns never polls Scratch\.Canceled`
		s += ts[i]
	}
	return s
}

// unpolledSamples reads one sample per hit from the forest's cumulative
// column — the join's shape — without checking the deadline.
func unpolledSamples(sc *snt.Scratch, ff *temporal.FrozenForest, hits []int32) int64 {
	var s int64
	for _, b := range hits { // want `scan loop over frozen columns never polls Scratch\.Canceled`
		s += int64(ff.Cum[b])
	}
	return s
}

// polledSamples is the same loop polling at the stride.
func polledSamples(sc *snt.Scratch, ff *temporal.FrozenForest, hits []int32) int64 {
	var s int64
	for k, b := range hits {
		if k&8191 == 8191 && sc.Canceled() {
			return s
		}
		s += int64(ff.Cum[b])
	}
	return s
}

// noScratch is construction/compaction-shaped code: not cancellable, so
// its sweeps are not flagged.
func noScratch(fx *temporal.FrozenIndex) int64 {
	var s int64
	for _, t := range fx.Ts {
		s += t
	}
	return s
}

// suppressed documents a deliberately unpolled loop.
func suppressed(sc *snt.Scratch, fx *temporal.FrozenIndex) int64 {
	var s int64
	//lint:ignore cancelpoll fixture: demonstrates that a justified suppression is honored
	for i := range fx.Ts {
		s += int64(fx.ISA[i])
	}
	return s
}
